"""The packaged gradient verification suite."""

import pytest

from rnnp.gradcheck import run_gradient_check, write_report


class TestRunGradientCheck:
    def test_clean_build_passes(self):
        rows, ok = run_gradient_check(n_seeds=6)
        assert ok
        assert all(r.ok for r in rows)

    def test_row_population(self):
        rows, _ = run_gradient_check(n_seeds=4)
        engines = {r.engine for r in rows}
        assert {"trrl", "rtrl", "bptt"} <= engines
        assert any("-vs-" in e for e in engines)
        # Every seed contributes three engine rows and three pairwise rows.
        assert len(rows) == 4 * 6

    @pytest.mark.parametrize("n_seeds", [0, -3])
    def test_no_instances_is_not_a_pass(self, n_seeds):
        with pytest.raises(ValueError, match="n_seeds must be >= 1"):
            run_gradient_check(n_seeds=n_seeds)

    def test_report_csv(self, tmp_path):
        rows, _ = run_gradient_check(n_seeds=2)
        path = str(tmp_path / "gradcheck.csv")
        write_report(rows, path)
        with open(path) as f:
            lines = f.read().strip().splitlines()
        assert lines[0] == "engine,seed,tau,lagset,max_rel_err,max_abs_err,ok"
        assert len(lines) == 1 + len(rows)
