import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trace_paths.py"


def test_trace_paths_lists_test_only_code_and_not_the_forward():
    # the tool imports earlyflow under its tracer, so it runs in a fresh process
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         check=True).stdout
    sections, module = {}, None
    for line in out.splitlines():
        if line.startswith("  "):
            sections[module].append(line.split(":")[0].strip())
        else:
            module = line.split(":")[0]
            sections[module] = []
    # extract decodes captures into blocks directly; records are for tests
    assert "PacketBlock.from_records" in sections["src/earlyflow/pcap.py"]
    # every path runs the forward, so no line of it is listed
    assert "forward" not in sections.get("src/earlyflow/model.py", [])
    assert "head_product" not in sections.get("src/earlyflow/model.py", [])
    # train's early stop runs, and sweep's process pool where there are 2 CPUs
    training = sections.get("src/earlyflow/training.py", [])
    assert "train" not in training
    # an eval of an empty test split runs class_sizes for its message
    assert "class_sizes" not in training
    if (os.cpu_count() or 1) >= 2:
        assert "sweep" not in training
