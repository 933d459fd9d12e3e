"""Set-up step of one benchmark run, timed from a fresh interpreter.

    python3 perfbench/prepare.py <workload> <seed> <workdir>

imports the package the way the ``diracvisc`` command does, writes the
workload's sweep configs into workdir, and prints ``time.monotonic()`` when
done; the parent subtracts the moment it started this process.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_package() -> dict:
    """Import diracvisc from this checkout's src/; short name -> module.

    Raises ImportError when the checkout has no src/diracvisc, rather than
    falling back to some other installed copy.
    """
    if not (SRC / "diracvisc" / "__init__.py").is_file():
        raise ImportError(f"no diracvisc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import diracvisc.cli
    from diracvisc import kubo_dynamic, kubo_static, model, scba, sweep
    if Path(diracvisc.__file__).resolve().parent != SRC / "diracvisc":
        raise ImportError(f"diracvisc imported from {diracvisc.__file__}, "
                          f"not from {SRC}")
    return {"cli": diracvisc.cli, "sweep": sweep, "model": model,
            "kubo_static": kubo_static, "kubo_dynamic": kubo_dynamic,
            "scba": scba}


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv
    load_package()
    from workloads import write_configs
    write_configs(workload, int(seed), Path(workdir))
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
