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
    # a train on 130-packet prefixes scores heads in chunks and recomputes
    # their probabilities in backward; an overflowing cell is blamed on its flow
    assert not {"md_mha", "md_mha.bw", "md_mha.probabilities", "PrefixFault.at"} \
        & set(sections.get("src/earlyflow/model.py", []))
    # a ragged series.csv row is named by its line
    features = sections.get("src/earlyflow/features.py", [])
    assert "_raise_bad_row" not in features
    # an all-float dataset is read as one part and its rows are views; a
    # dataset of integral columns as parts regrouped when a column widens
    # (the non-adjacent int8 columns taken from each block by index), its
    # rows decoded
    assert not {"MtsSample.rows", "_narrowest", "_int_kind", "_regroup", "_columns"} \
        & set(features)
    # train's early stop runs, and sweep's process pool where there are 2 CPUs
    training = sections.get("src/earlyflow/training.py", [])
    assert "train" not in training
    # an eval of an empty test split runs class_sizes for its message
    assert "class_sizes" not in training
    if (os.cpu_count() or 1) >= 2:
        assert "sweep" not in training
