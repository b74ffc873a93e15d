"""The zoo-wide fusion guard script: a mismatched group fails the run."""

import importlib.util
from pathlib import Path

from repro.graph.reference import ReferenceExecutor

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "fusion_guard_zoo", REPO_ROOT / "tools" / "fusion_guard_zoo.py"
)
fusion_guard_zoo = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fusion_guard_zoo)


def test_miscompiled_fused_kernel_fails_the_run(monkeypatch, capsys):
    honest = ReferenceExecutor._op_fused

    def off_by_one(self, node, operands):
        return tuple(out + 1.0 for out in honest(self, node, operands))

    monkeypatch.setattr(ReferenceExecutor, "_op_fused", off_by_one)
    assert fusion_guard_zoo.main(["resnet50"]) == 1
    captured = capsys.readouterr()
    row = next(line for line in captured.out.splitlines()
               if line.startswith("resnet50"))
    groups, ok, mismatch, skipped = (int(field) for field in row.split()[1:5])
    assert (ok, mismatch, skipped) == (0, groups, 0)
    assert "FAIL: resnet50" in captured.err
