"""Print the code lines of each module of a package and their total.

A code line holds at least one token that is not a comment, a docstring or
layout (newlines, indents): blank lines, comments and docstrings do not
count.  A docstring is a string literal that is a statement of its own.

    python tools/code_size.py [src/orliczlab]
"""

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    lines = set()
    statement = []  # the tokens of the current logical line
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.NEWLINE:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in _LAYOUT:
                statement.append(tok)
    return len(lines)


def main(root: str = "src/orliczlab") -> None:
    counts = {p.name: code_lines(p) for p in sorted(Path(root).glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")


if __name__ == "__main__":
    main(*sys.argv[1:])
