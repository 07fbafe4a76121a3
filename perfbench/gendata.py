#!/usr/bin/env python3
"""Generate and save one synthetic dataset directory.

    python3 perfbench/gendata.py OUT_DIR SPEC_JSON SEED

SPEC_JSON holds ``SyntheticSpec`` fields. The directory is written under a
temporary name and renamed into place, so OUT_DIR exists only when complete.
"""

import json
import os
import sys
import tempfile
from pathlib import Path


def main(argv: list[str]) -> int:
    out, fields, seed = Path(argv[0]), json.loads(argv[1]), int(argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from slotgnn.graph import SyntheticSpec, save_dataset, synthetic_generate

    spec = SyntheticSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    save_dataset(synthetic_generate(spec, seed), tmp)
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
