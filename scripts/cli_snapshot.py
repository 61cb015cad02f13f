"""Write the JSON output of the main CLI reports into a directory.

Usage (from the repository root):

    PYTHONPATH=src python3 scripts/cli_snapshot.py OUTDIR

For each of the 14 catalog algebras it writes `centers`, `product --kind
tensor`, `product --kind exterior` and `capability`, all at `--q
0,1,2,3,4,6`, plus `show` and `validate`; it writes `show` and `validate`
for the two algebra files `tests/golden/*.lieq` too, and `verify catalog
--oracle`: 89 files. Run it on two
checkouts and compare with `diff -r` to see whether a change kept every
report byte-identical. The commands run in process through `lieq.cli.main`;
the file holds what the command writes to stdout.
"""

import contextlib
import io
import re
import sys
from pathlib import Path

from lieq.cli import main
from lieq.io_catalog import Catalog

QS = "0,1,2,3,4,6"
GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"


def _slug(name: str) -> str:
    """A file-name form of a catalog name, e.g. "(Z/4)^2" -> "Z_mod_4_pow_2"."""
    for sym, word in (("/", "mod"), ("^", "pow"), ("+", "plus"), ("@", "at")):
        name = name.replace(sym, f"_{word}_")
    return re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_")


def _commands():
    for name in Catalog.names():
        spec, slug = f"catalog:{name}", _slug(name)
        yield f"centers_{slug}", ["centers", spec, "--q", QS]
        for kind in ("tensor", "exterior"):
            yield f"product_{kind}_{slug}", ["product", spec, "--q", QS, "--kind", kind]
        yield f"capability_{slug}", ["capability", spec, "--q", QS]
        yield f"show_{slug}", ["show", spec]
        yield f"validate_{slug}", ["validate", spec]
    for path in sorted(GOLDEN.glob("*.lieq")):
        yield f"show_file_{path.stem}", ["show", str(path)]
        yield f"validate_file_{path.stem}", ["validate", str(path)]
    yield "verify_catalog_oracle", ["verify", "catalog", "--oracle"]


def snapshot(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    count = 0
    for stem, argv in _commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--format", "json"])
        (outdir / f"{stem}.json").write_text(out.getvalue(), encoding="utf-8")
        print(f"{stem}: exit {code}", file=sys.stderr)
        count += 1
    return count


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: cli_snapshot.py OUTDIR")
    print(f"{snapshot(Path(sys.argv[1]))} files written", file=sys.stderr)
