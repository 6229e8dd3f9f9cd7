"""scripts/output_digest.py shows that a change keeps every output byte for
byte, but only of the files its cases write: a case that stops writing a
table, or writes one empty, digests just as stably.  Every case must exit 0
and write its manifest and its tables, each with rows."""

import importlib.util
import json
from pathlib import Path

import pytest

DIGEST = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("output_digest", DIGEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def runs(digest, tmp_path_factory):
    return digest.run_cases(tmp_path_factory.mktemp("digest"))


def test_every_case_exits_0_and_writes_its_tables(digest, runs):
    assert list(runs) == list(digest.CASES)
    for case, (status, outdir) in runs.items():
        assert status == 0, case
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["exit_status"] == 0 and manifest["passed"], case
        tables = {f.name: f.read_text().splitlines()
                  for f in outdir.glob("*.tsv")}
        assert tables, case
        # a header (or a snapshot's comment line) and at least one row
        assert all(len(lines) >= 2 for lines in tables.values()), case
        if manifest["experiment"] == "run":
            # a steady run too: its one snapshot is the steady state
            assert {"report.tsv", "trace_gaps.tsv",
                    "field_t0000.tsv"} <= set(tables), case


def test_a_comparison_table_reads_the_source_term(runs):
    # the two cases differ only by f, which moves no ordering violation (0
    # for both): the report's signed max(u - v) per seed must show it
    coercive, moving = (runs[f"comparison_seeds_{case}"][1] / "report.tsv"
                        for case in ("coercive", "moving"))
    assert coercive.read_bytes() != moving.read_bytes()
