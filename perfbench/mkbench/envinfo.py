"""Identity of the code under test: git commit when there is one, source hash always."""

import hashlib
import subprocess
from pathlib import Path


def git_commit(root):
    """HEAD of the git repository rooted exactly at `root`, else None."""
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != Path(root).resolve():
        return None
    return lines[1]


def tree_sha256(directory):
    """sha256 over the relative paths and bytes of the .py and .json files."""
    h = hashlib.sha256()
    directory = Path(directory)
    for path in sorted(p for p in directory.rglob("*")
                       if p.suffix in (".py", ".json") and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
