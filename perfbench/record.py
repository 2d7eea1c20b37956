"""Record the sha256 of every job's output into ``expected_sha256.json``.

    python3 perfbench/record.py

Runs every job that any seed can draw, against the votelab sources of this
checkout, and refuses to record a job whose known answers do not hold.
Re-record only when a change is meant to alter report documents.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import HERE, ROOT, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    hashes, wrong = {}, []
    here = os.getcwd()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as work:
        os.chdir(work)
        try:
            for job in workloads.every_job():
                code, text = job.run()
                problems = job.check(code, text)
                if problems:
                    wrong.append(f"{job.key}: {problems}")
                hashes[job.key] = workloads.sha256(text)
        finally:
            os.chdir(here)
    if wrong:
        print("\n".join(wrong), file=sys.stderr)
        return 1
    path = HERE / "expected_sha256.json"
    path.write_text(json.dumps(dict(sorted(hashes.items())), indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(hashes)} jobs in {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
