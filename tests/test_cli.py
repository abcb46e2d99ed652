import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import secregion.cli
import secregion.splitting
import secregion.wsr

from secregion import (
    ChannelPair,
    ChannelParseError,
    PowerSplit,
    RunConfig,
    Scenario,
    load_channels,
    run,
    solve_split,
    solve_wiretap,
    write_channels,
)
from secregion.cli import main

# The solver settings every sidecar records, as the sidecar spells them.
SOLVER_SETTINGS = {
    "solver_max_iters": "500",
    "solver_gtol": "9.9999999999999995e-08",
    "solver_gap_tol": "9.9999999999999995e-08",
}


# wiretap_golden.json instance 42 (hm 2x4, he 3x4, p 3.07e5), on whose
# wiretap solves the corner search's rescue runs, and the scenario C
# (common off) CSVs of two jobs on it, pinned at seed 0.
GOLDEN_42 = json.loads(
    (Path(__file__).parent / "data" / "wiretap_golden.json").read_text()
)["instances"][42]
SEED_FREE_JOBS = {
    "tdma": (
        {},
        "r0,r1,r2,order,alpha0,alpha1,alpha2\n"
        "0,5.1105873762770067,9.4899396739524846,na,,,\n",
    ),
    "ps": (
        {"eps1": 0.5},
        "r0,r1,r2,order,alpha0,alpha1,alpha2\n"
        "0,0,18.979879347904969,12,0,0,1\n"
        "0,9.7205101234324367,18.125419570906516,12,0,0.5,0.5\n"
        "0,9.7893369027293637,17.979885990761336,21,0,0.5,0.5\n"
        "0,10.221174752554013,0,12,0,1,0\n",
    ),
}


def write_text(path, text):
    path.write_text(text, encoding="utf-8")


@pytest.fixture
def ch22_file(tmp_path):
    path = tmp_path / "ch22.txt"
    write_text(path, "2 2 2\n0.3 2.5\n2.2 1.8\n1.3 1.2\n1.5 3.9\n")
    return str(path)


class TestLoadChannels:
    def test_matrix_file(self, ch22_file):
        ch = load_channels(ch22_file)
        assert np.array_equal(ch.h1, [[0.3, 2.5], [2.2, 1.8]])
        assert np.array_equal(ch.h2, [[1.3, 1.2], [1.5, 3.9]])

    def test_row_vector_file(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_text(path, "1 1 2\n1 0.4\n0.4 1\n")
        ch = load_channels(str(path))
        assert ch.n1 == 1 and ch.n2 == 1 and ch.nt == 2
        assert np.array_equal(ch.h1, [[1.0, 0.4]])

    def test_row_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        write_text(path, "1 1 2\n1 0.4 9\n0.4 1\n")
        with pytest.raises(ChannelParseError) as err:
            load_channels(str(path))
        assert err.value.line_no == 2

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        write_text(path, "1 1 2\n1 x\n0.4 1\n")
        with pytest.raises(ChannelParseError) as err:
            load_channels(str(path))
        assert err.value.line_no == 2

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        write_text(path, "2 2\n1 1\n")
        with pytest.raises(ChannelParseError) as err:
            load_channels(str(path))
        assert err.value.line_no == 1

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_token(self, tmp_path, capsys, token):
        path = tmp_path / "bad.txt"
        write_text(path, f"1 1 2\n1 0.4\n0.4 {token}\n")
        with pytest.raises(ChannelParseError) as err:
            load_channels(str(path))
        assert err.value.line_no == 3
        cfg = RunConfig(
            channels=str(path),
            scenario="A",
            method="tdma",
            power=1.0,
            out=str(tmp_path / "o.csv"),
        )
        assert run(cfg) == 1
        assert "cannot read channels: line 3" in capsys.readouterr().err

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ch = ChannelPair(rng.standard_normal((2, 3)), rng.standard_normal((1, 3)))
        path = tmp_path / "rt.txt"
        write_channels(ch, str(path))
        back = load_channels(str(path))
        assert np.array_equal(back.h1, ch.h1)
        assert np.array_equal(back.h2, ch.h2)


class TestRun:
    def test_tdma_zero_power(self, ch22_file, tmp_path):
        out = tmp_path / "out.csv"
        cfg = RunConfig(
            channels=ch22_file,
            scenario="A",
            method="tdma",
            power=0.0,
            out=str(out),
        )
        assert run(cfg) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r0,r1,r2,order,alpha0,alpha1,alpha2"
        assert lines[1].startswith("0,0,0,na,")
        assert (tmp_path / "out.csv.meta").exists()

    def test_wsr_with_common_is_usage_error(self, ch22_file, tmp_path, capsys):
        cfg = RunConfig(
            channels=ch22_file,
            scenario="A",
            method="wsr",
            power=1.0,
            out=str(tmp_path / "o.csv"),
            common=True,
        )
        assert run(cfg) == 2
        assert "common" in capsys.readouterr().err

    @pytest.mark.parametrize("method", sorted(SEED_FREE_JOBS))
    def test_output_ignores_seed(self, tmp_path, method):
        hm, he, p = GOLDEN_42["hm"], GOLDEN_42["he"], GOLDEN_42["p"]
        assert solve_wiretap(hm, he, p).restarted
        chfile = tmp_path / "g42.txt"
        write_channels(ChannelPair(hm, he), str(chfile))
        extra, want = SEED_FREE_JOBS[method]
        for seed in (0, 1):
            out = tmp_path / f"{method}_{seed}.csv"
            cfg = RunConfig(
                channels=str(chfile),
                scenario="C",
                method=method,
                power=p,
                out=str(out),
                common=False,
                seed=seed,
                **extra,
            )
            assert run(cfg) == 0
            assert out.read_text() == want

    @pytest.mark.parametrize("common, rows", [(False, 115), (True, 145)])
    def test_ps_sidecar_counts_searches(self, ch22_file, tmp_path, common, rows):
        # ch22 C at eps1 0.5, pinned: the wiretap waves make 36 stacked
        # search-objective calls; with the common message on, the second
        # wave has more problems, so more rows in as many calls.  No
        # wiretap solve needs the rescue, and every one ends stationary.
        out = tmp_path / "c.csv"
        cfg = RunConfig(
            channels=ch22_file,
            scenario="C",
            method="ps",
            power=12.0,
            out=str(out),
            common=common,
            eps1=0.5,
        )
        assert run(cfg) == 0
        meta = dict(
            line.split("=", 1) for line in (tmp_path / "c.csv.meta").read_text().splitlines()
        )
        assert (meta["search_batches"], meta["search_rows"]) == ("36", str(rows))
        assert meta["wiretap_rescues"] == "0"
        assert meta["wiretap_gap_max"] == "1.8041124150158794e-15"

    def test_ps_sidecar_counts_rescues(self, tmp_path):
        # On instance 42 the rescue runs, and the largest gap is that of the
        # full-power first stage, which stays above GAP_TOL after it.
        hm, he, p = GOLDEN_42["hm"], GOLDEN_42["he"], GOLDEN_42["p"]
        chfile = tmp_path / "g42.txt"
        write_channels(ChannelPair(hm, he), str(chfile))
        out = tmp_path / "g.csv"
        cfg = RunConfig(
            channels=str(chfile),
            scenario="C",
            method="ps",
            power=p,
            out=str(out),
            common=False,
            eps1=0.5,
        )
        assert run(cfg) == 0
        meta = dict(line.split("=", 1) for line in Path(f"{out}.meta").read_text().splitlines())
        assert out.read_text() == SEED_FREE_JOBS["ps"][1]
        assert meta["wiretap_rescues"] == "5"
        assert float(meta["wiretap_gap_max"]) == solve_wiretap(hm, he, p).gap > 1e-7
        assert int(meta["search_batches"]) < int(meta["search_rows"])

    @pytest.mark.parametrize("scenario", ["A", "C"])
    @pytest.mark.parametrize(
        "method, extra", [("oracle", {"samples": 2000}), ("ps", {"eps1": 0.25})]
    )
    def test_high_power_covariances_pass_validation(
        self, tmp_path, scenario, method, extra
    ):
        # At p 1e8 eigvalsh rounds PSD-by-construction covariances to least
        # eigenvalues below -1e-9; the validation margins scale with p.
        chfile = tmp_path / "hp.txt"
        write_text(chfile, "1 1 2\n1 0.5\n0.3 1\n")
        out = tmp_path / "hp.csv"
        cfg = RunConfig(
            channels=str(chfile),
            scenario=scenario,
            method=method,
            power=1e8,
            out=str(out),
            **extra,
        )
        assert run(cfg) == 0
        assert len(out.read_text().splitlines()) > 1

    @pytest.mark.parametrize("scenario, power", [("A", 1e8), ("C", 1e8), ("A", 1e12)])
    def test_high_power_wsr_passes_ascent_check(self, tmp_path, scenario, power):
        # The ascents stay finite and within the budget at these powers.
        chfile = tmp_path / "hp.txt"
        write_text(chfile, "1 1 2\n1 0.5\n0.3 1\n")
        out = tmp_path / "hp.csv"
        cfg = RunConfig(
            channels=str(chfile),
            scenario=scenario,
            method="wsr",
            power=power,
            out=str(out),
            common=False,
            sigma=0.5,
        )
        assert run(cfg) == 0
        assert len(out.read_text().splitlines()) > 1

    def test_unwritable_out_is_io_error(self, ch22_file, tmp_path, capsys):
        out = tmp_path / "missing" / "o.csv"
        cfg = RunConfig(
            channels=ch22_file,
            scenario="A",
            method="tdma",
            power=1.0,
            out=str(out),
        )
        assert run(cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
        assert not out.parent.exists()

    def test_consistency_failure_is_one_line_exit_3(
        self, ch22_file, tmp_path, capsys, monkeypatch
    ):
        # A whitening that no longer preserves rates trips the
        # 1e-9 consistency gate; the run reports it without a traceback.
        whiten = secregion.splitting.whiten
        monkeypatch.setattr(
            secregion.splitting, "whiten", lambda *args: 1.01 * whiten(*args)
        )
        out = tmp_path / "o.csv"
        argv = ["--channels", ch22_file, "--scenario", "A", "--common", "off"]
        argv += ["--method", "ps", "--power", "12", "--eps1", "0.5", "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical consistency check failed: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "job",
        [
            ["--method", "ps", "--power", "1e16", "--eps1", "0.5"],
            ["--method", "tdma", "--power", "1e20"],
        ],
        ids=["ps", "tdma"],
    )
    def test_failed_factorization_is_one_line_exit_3(self, ch22_file, tmp_path, capsys, job):
        # At these powers the wiretap search meets a link matrix whose
        # Cholesky factor fails, as rounding has left it indefinite; the run
        # reports it without a traceback.
        out = tmp_path / "o.csv"
        argv = ["--channels", ch22_file, "--scenario", "C", "--common", "off"]
        assert main(argv + job + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical consistency check failed: ")
        assert err.count("\n") == 1
        assert not out.exists() and not Path(f"{out}.meta").exists()

    @pytest.mark.parametrize("power", ["1e10", "1e12"])
    def test_high_power_scenario_c_passes_consistency_gate(self, tmp_path, power):
        # Whitening with the links' Cholesky factor rounds as the rate
        # evaluation does, so the second stage agrees with the original
        # channels within 1e-9 here.
        path = tmp_path / "hp.txt"
        write_text(path, "1 1 2\n1 0.5\n0.3 1\n")
        out = tmp_path / "o.csv"
        argv = ["--channels", str(path), "--scenario", "C", "--common", "on"]
        argv += ["--method", "ps", "--power", power, "--eps1", "0.25", "--out", str(out)]
        assert main(argv) == 0
        assert out.exists()

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        cfg = RunConfig(
            channels=str(tmp_path / "nope.txt"),
            scenario="A",
            method="tdma",
            power=1.0,
            out=str(tmp_path / "o.csv"),
        )
        assert run(cfg) == 1

    def test_ps_endpoint_matches_wiretap(self, ch22_file, tmp_path):
        out = tmp_path / "ps.csv"
        cfg = RunConfig(
            channels=ch22_file,
            scenario="C",
            method="ps",
            power=12.0,
            out=str(out),
            common=False,
            eps1=0.5,
        )
        assert run(cfg) == 0
        rows = out.read_text().strip().splitlines()[1:]
        max_r1 = max(float(r.split(",")[1]) for r in rows)
        ch = load_channels(ch22_file)
        ref = solve_wiretap(ch.h1, ch.h2, 12.0).rate
        assert max_r1 == pytest.approx(ref, abs=1e-6)
        # power-split rows carry their fractions and hold valid rate values
        top = max(rows, key=lambda r: float(r.split(",")[1])).split(",")
        assert top[4] != "" and top[5] != "" and top[6] != ""
        for row in rows:
            r0, r1, r2 = (float(tok) for tok in row.split(",")[:3])
            assert np.isfinite([r0, r1, r2]).all()
            assert min(r0, r1, r2) >= 0.0

    def test_oracle_determinism_byte_identical(self, ch22_file, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cfg = RunConfig(
                channels=ch22_file,
                scenario="B",
                method="oracle",
                power=5.0,
                out=str(out),
                common=False,
                samples=400,
                seed=11,
            )
            assert run(cfg) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @staticmethod
    def _wsr_sidecar(ch22_file, tmp_path, tag):
        """The sidecar of a wsr job at power 12, with the sweep's own
        search counts and solutions for the same job."""
        out = tmp_path / "w.csv"
        cfg = RunConfig(
            channels=ch22_file,
            scenario=tag,
            method="wsr",
            power=12.0,
            out=str(out),
            common=False,
            sigma=0.5,
        )
        assert run(cfg) == 0
        meta = dict(
            line.split("=", 1) for line in (tmp_path / "w.csv.meta").read_text().splitlines()
        )
        counts = secregion.splitting.SweepCounts()
        sols = [
            sol
            for _, sol in secregion.wsr.wsr_sweep_points(
                load_channels(ch22_file), Scenario(tag, False), 12.0, 0.5, counts
            )
        ]
        return meta, counts, sols

    @pytest.mark.parametrize("tag", ["A", "B"])
    def test_wsr_sidecar_counts_searches(self, ch22_file, tmp_path, tag):
        # Every scenario's sweep is one lockstep per channel shape, and the
        # sidecar gives its search counts as a ps job's does, with the most
        # unused budget and the largest Frank-Wolfe gap of its solves.
        meta, counts, sols = self._wsr_sidecar(ch22_file, tmp_path, tag)
        assert len(sols) == (6 if tag == "A" else 3)
        batches, rows = int(meta["search_batches"]), int(meta["search_rows"])
        assert (batches, rows) == (counts.search_batches, counts.search_rows)
        # A batch carries at most one row per ascent of the sweep.
        assert 0 < batches < rows <= batches * sum(sol.n_ascents for sol in sols)
        assert float(meta["wsr_unused_power_max"]) == max(sol.unused for sol in sols)
        assert float(meta["wsr_gap_max"]) == max(sol.gap for sol in sols)
        assert not [k for k in meta if k.startswith(("bsmm_", "corner_", "wsr_power", "wsr_eps"))]

    def test_wsr_sidecar_sums_corner_counts(self, ch22_file, tmp_path):
        # Scenario C runs one corner search per weight, and its sidecar gives
        # the searches' counts under the search_* keys a ps job uses.
        meta, counts, sols = self._wsr_sidecar(ch22_file, tmp_path, "C")
        assert len(sols) == 3  # weights 0, 0.5, 1, each covering both orders
        assert int(meta["search_batches"]) == counts.search_batches > 0
        assert int(meta["search_rows"]) == counts.search_rows > 0
        assert sum(sol.n_ascents for sol in sols) > 0
        for sol in sols:
            assert 0 <= sol.n_unconverged_ascents <= sol.n_ascents
        assert float(meta["wsr_unused_power_max"]) == max(sol.unused for sol in sols)
        assert float(meta["wsr_gap_max"]) == max(sol.gap for sol in sols)
        assert not [k for k in meta if k.startswith(("bsmm_", "corner_", "wsr_power", "wsr_eps"))]

    def test_wsr_sidecar_sums_corner_batches(self, ch22_file, tmp_path):
        # Each stacked objective call of the corner searches' lockstep
        # ascents is one batch and search_rows counts their rows, so a batch
        # carries at most one row per ascent.
        meta, _, sols = self._wsr_sidecar(ch22_file, tmp_path, "C")
        batches, rows = int(meta["search_batches"]), int(meta["search_rows"])
        assert 0 < batches < rows <= batches * sum(sol.n_ascents for sol in sols)

    def test_wsr_unconverged_count_from_solutions(self, ch22_file, tmp_path, monkeypatch):
        # Mark every other solve unconverged; the sidecar must count them.
        sweep = secregion.cli.wsr_sweep_points
        flags = []

        def flaky(*args, **kwargs):
            solved = []
            for point, sol in sweep(*args, **kwargs):
                flags.append(sol.converged and len(flags) % 2 == 1)
                solved.append((point, replace(sol, converged=flags[-1])))
            return solved

        monkeypatch.setattr(secregion.cli, "wsr_sweep_points", flaky)
        out = tmp_path / "w.csv"
        cfg = RunConfig(
            channels=ch22_file,
            scenario="A",
            method="wsr",
            power=2.0,
            out=str(out),
            common=False,
            sigma=0.5,
        )
        assert run(cfg) == 0
        meta = dict(
            line.split("=", 1) for line in (tmp_path / "w.csv.meta").read_text().splitlines()
        )
        assert len(flags) == 6  # weights 0, 0.5, 1 in both orders
        assert int(meta["n_unconverged_cells"]) == flags.count(False) >= 3

    @pytest.mark.parametrize(
        "method, extra", [("ps", {"eps1": 0.5}), ("wsr", {"sigma": 1.0})]
    )
    def test_sidecar_reports_solver_settings(self, ch22_file, tmp_path, method, extra):
        out = tmp_path / "s.csv"
        cfg = RunConfig(
            channels=ch22_file,
            scenario="A",
            method=method,
            power=2.0,
            out=str(out),
            common=False,
            **extra,
        )
        assert run(cfg) == 0
        meta = dict(
            line.split("=", 1) for line in (tmp_path / "s.csv.meta").read_text().splitlines()
        )
        assert {key: meta[key] for key in SOLVER_SETTINGS} == SOLVER_SETTINGS

    @pytest.mark.parametrize(
        "method, extra",
        [
            ("oracle", ["--samples", "0"]),
            ("ps", ["--eps1", "0.7"]),
            ("wsr", ["--sigma", "0"]),
            ("wsr", ["--power", "0"]),
            ("ps", ["--power", "inf"]),
            ("tdma", ["--power", "nan"]),
            ("oracle", ["--seed", "-1"]),
            ("tdma", ["--seed", "-1"]),
        ],
    )
    def test_bad_parameter_is_usage_error(self, ch22_file, tmp_path, capsys, method, extra):
        argv = ["--channels", ch22_file, "--scenario", "A", "--common", "off"]
        argv += ["--method", method, "--power", "2.0", "--out", str(tmp_path / "o.csv")]
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    def test_main_argv(self, ch22_file, tmp_path):
        out = tmp_path / "m.csv"
        code = main(
            [
                "--channels",
                ch22_file,
                "--scenario",
                "A",
                "--common",
                "off",
                "--method",
                "oma",
                "--power",
                "2.0",
                "--eps1",
                "0.25",
                "--sigma",
                "0.5",
                "--samples",
                "7",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        meta = dict(
            line.split("=", 1) for line in (tmp_path / "m.csv.meta").read_text().splitlines()
        )
        assert meta["channels"] == ch22_file and meta["method"] == "oma"
        assert (meta["scenario"], meta["common"], meta["power"]) == ("A", "off", "2")
        assert (meta["eps1"], meta["sigma"], meta["samples"], meta["seed"]) == (
            "0.25",
            "0.5",
            "7",
            "3",
        )

    @pytest.mark.parametrize("power", [1e-3, 1e-9])
    @pytest.mark.parametrize("tag", ["A", "B", "C"])
    def test_wsr_small_budget_on_strong_channels(self, tmp_path, monkeypatch, tag, power):
        # At these budgets no multiplier of the first two brackets used to
        # keep the power within the budget on this pair.
        path = tmp_path / "strong.txt"
        write_text(path, "1 1 2\n20 5\n4 30\n")
        sweep = secregion.cli.wsr_sweep_points
        sols = []

        def recorded(*args, **kwargs):
            solved = sweep(*args, **kwargs)
            sols.extend(sol for _, sol in solved)
            return solved

        monkeypatch.setattr(secregion.cli, "wsr_sweep_points", recorded)
        argv = ["--channels", str(path), "--scenario", tag, "--common", "off"]
        argv += ["--method", "wsr", "--power", repr(power), "--sigma", "0.25"]
        assert main(argv + ["--out", str(tmp_path / "w.csv")]) == 0
        assert sols
        for sol in sols:
            assert float(np.trace(sol.q1) + np.trace(sol.q2)) <= power

    @pytest.mark.parametrize(
        "instance, tag, common, power",
        [("ch22", "C", False, 12.0), ("ch22b", "A", True, 10.0)],
    )
    def test_ps_rows_carry_their_splits(
        self, request, tmp_path, instance, tag, common, power
    ):
        # Each CSV row's alphas and order, solved again alone, give the
        # row's rates bit for bit.
        path = str(tmp_path / "ch.txt")
        write_channels(request.getfixturevalue(instance), path)
        out = tmp_path / "ps.csv"
        cfg = RunConfig(
            channels=path,
            scenario=tag,
            method="ps",
            power=power,
            out=str(out),
            common=common,
            eps1=0.25,
        )
        assert run(cfg) == 0
        ch, scenario = load_channels(path), Scenario(tag, common)
        rows = out.read_text().splitlines()[1:]
        assert len(rows) > 2
        for row in rows:
            r0, r1, r2, order, a0, a1, a2 = row.split(",")
            split = PowerSplit(float(a0), float(a1), float(a2))
            res = solve_split(ch, scenario, split, power, order)
            got = (res.rates.r0, res.rates.r1, res.rates.r2, res.rates.order)
            assert got == (float(r0), float(r1), float(r2), order)


# The six jobs (method:scenario:common) of the scipy-free run check; both
# ps jobs run wiretap ascents, as ch22's receivers have two rows.
_NO_SCIPY_JOBS = [
    "oracle:A:off", "wsr:C:off", "tdma:A:off", "oracle:A:on", "ps:C:off", "ps:C:on"
]

# Run in a fresh interpreter, with scipy blocked when argv[3] is "block", so
# that any import of it raises: imports the package, then runs the jobs in
# argv[4:] one after another in-process on the channel file argv[1], writing
# each job's CSV to directory argv[2], and prints the scipy modules in
# sys.modules after the import and after each job.
_NO_SCIPY_SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    if sys.argv[3] == "block":
        sys.modules["scipy"] = None

    from secregion.cli import RunConfig, run

    def loaded():
        return sorted(
            m for m, mod in sys.modules.items()
            if mod is not None and m.split(".")[0] == "scipy"
        )

    report = [("import", loaded())]
    for job in sys.argv[4:]:
        method, scenario, common = job.split(":")
        cfg = RunConfig(
            channels=sys.argv[1],
            scenario=scenario,
            method=method,
            power=12.0,
            out=sys.argv[2] + "/" + job.replace(":", "_") + ".csv",
            common=common == "on",
            eps1=0.5,
            sigma=0.5,
            samples=200,
        )
        if run(cfg) != 0:
            sys.exit("job " + job + " failed")
        report.append((job, loaded()))
    print(json.dumps(report))
    """
)


def test_jobs_run_without_scipy(ch22_file, tmp_path):
    # The package runs on numpy alone: with scipy blocked every job exits 0,
    # loads no scipy module and writes the CSV bytes that the same job
    # writes with scipy importable.
    src = str(Path(secregion.wsr.__file__).resolve().parents[1])
    for mode in ("block", "open"):
        (tmp_path / mode).mkdir()
        done = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_SCRIPT, ch22_file, str(tmp_path / mode), mode]
            + _NO_SCIPY_JOBS,
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.strip().splitlines()[-1])
        assert report == [["import", []]] + [[job, []] for job in _NO_SCIPY_JOBS]
    for job in _NO_SCIPY_JOBS:
        name = job.replace(":", "_") + ".csv"
        assert (tmp_path / "block" / name).read_bytes() == (tmp_path / "open" / name).read_bytes()
