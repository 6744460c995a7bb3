import io
import json
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

import fgl.cli
import fgl.grouprings
import fgl.tate
from fgl.cli import _default_trunc, job_hash, main, run_job, run_suite
from fgl.deltaring import SheafValue
from fgl.errors import BaselineMismatch

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads"


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_series_command_deterministic(capsys):
    args = ("series", "--law", "multiplicative", "--p", "2", "--m", "8", "--trunc", "16")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["series"]["terms"][0] == {
        "exps": [1], "coeff": {"monomials": [{"exps": [], "coeff": "8"}]}
    }


def test_level_command_matches_cyclotomic(capsys):
    code, out, _ = run_cli(capsys, "level", "--law", "multiplicative", "--p", "3", "--type", "2")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 6
    constant = data["relations"][0][0]
    assert constant == {"exps": [0], "coeff": {"monomials": [{"exps": [], "coeff": "3"}]}}


def test_tate_command_reports_iso(capsys):
    code, out, _ = run_cli(capsys, "tate", "--law", "multiplicative", "--p", "2", "--type", "2")
    assert code == 0
    data = json.loads(out)
    assert data["levelRank"] == 2 and data["tateRank"] == 2 and data["iso"] is True


def test_check_axioms_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "check-axioms", "--law", "honda", "--height", "2",
                           "--p", "2", "--trunc", "10")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_usage_error_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--law", "multiplicative", "--p", "2", "--m", "4", "--bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["series", "--law", "nosuchlaw", "--p", "2", "--m", "4"])
    assert exc.value.code == 1


def test_math_failure_exit_two(capsys):
    code, _, err = run_cli(capsys, "delta-check", "--ring", "Z[t]; psi t -> t + 1; p 2")
    assert code == 2
    assert "NotAFrobeniusLift" in err


def test_output_file_contains_record(tmp_path, capsys):
    path = tmp_path / "record.json"
    code, _, _ = run_cli(capsys, "prepare", "--law", "multiplicative", "--p", "2",
                         "--M", "1", "--output", str(path))
    assert code == 0
    record = json.loads(path.read_text())
    assert record["outputs"]["degree"] == 2
    assert record["version"]
    assert record["hash"] == job_hash(record["job"])


def test_unwritable_output_is_a_one_line_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "check-axioms", "--law", "multiplicative", "--p", "2",
                             "--output", str(path))
    assert (code, out) == (1, "")
    assert err == f"fgl check-axioms: cannot write {path}: No such file or directory\n"


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "groupring", "--law", "multiplicative", "--p", "2",
                           "--type", "1", "--format", "text")
    assert code == 0
    assert "rank: 2" in out


def test_tate_text_format(capsys):
    code, out, _ = run_cli(capsys, "tate", "--law", "multiplicative", "--p", "2",
                           "--type", "1", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert "iso: true" in lines and "levelRank: 1" in lines
    assert all(": " in line for line in lines)


def test_tate_report_flag_removed():
    with pytest.raises(SystemExit) as exc:
        main(["tate", "--law", "multiplicative", "--p", "2", "--type", "1",
              "--report", "text"])
    assert exc.value.code == 1


def test_run_job_identical_hashes():
    job = {"command": "level", "law": "multiplicative", "p": 3, "type": "2"}
    r1, r2 = run_job(job), run_job(job)
    assert r1["hash"] == r2["hash"]
    assert r1["digest"] == r2["digest"]
    assert r1["outputs"] == r2["outputs"]


SMALL_SUITE = [
    {"command": "level", "law": "multiplicative", "p": 2, "type": "2"},
    {"command": "tate", "law": "multiplicative", "p": 3, "type": "1"},
    {"command": "delta-check", "ring": "Z; psi id; p 2", "samples": 20, "seed": 1},
]


def write_suite(tmp_path):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps(SMALL_SUITE))
    return str(config)


def test_suite_runs_and_is_deterministic(tmp_path):
    config = write_suite(tmp_path)
    cache = str(tmp_path / "cache")
    out1, out2 = io.StringIO(), io.StringIO()
    assert run_suite(config, cache=cache, out=out1) == 0
    assert run_suite(config, cache=cache, out=out2) == 0
    assert out1.getvalue() == out2.getvalue()
    # fresh cache gives the same bytes as the cached run
    out3 = io.StringIO()
    assert run_suite(config, cache=str(tmp_path / "cache2"), out=out3) == 0
    assert out3.getvalue() == out1.getvalue()


def test_suite_cache_survives_corruption(tmp_path):
    config = write_suite(tmp_path)
    cache = tmp_path / "cache"
    out1 = io.StringIO()
    run_suite(config, cache=str(cache), out=out1)
    victim = sorted(cache.glob("*.json"))[0]
    victim.write_text("{not json at all")
    out2 = io.StringIO()
    assert run_suite(config, cache=str(cache), out=out2) == 0
    assert out2.getvalue() == out1.getvalue()
    # the corrupted entry was transparently recomputed and rewritten
    assert json.loads(victim.read_text())["outputs"]


def test_suite_baseline_roundtrip_and_mismatch(tmp_path):
    config = write_suite(tmp_path)
    cache = str(tmp_path / "cache")
    baseline = tmp_path / "baseline.json"
    out = io.StringIO()
    run_suite(config, baseline_path=str(baseline), cache=cache,
              update_baseline=True, out=out)
    out2 = io.StringIO()
    assert run_suite(config, baseline_path=str(baseline), cache=cache, out=out2) == 0
    assert "baseline: OK" in out2.getvalue()
    digests = json.loads(baseline.read_text())
    digests[0] = "0" * 64
    baseline.write_text(json.dumps(digests))
    with pytest.raises(BaselineMismatch):
        run_suite(config, baseline_path=str(baseline), cache=cache, out=io.StringIO())


def test_suite_recomputes_records_of_other_code(tmp_path, monkeypatch):
    config = write_suite(tmp_path)
    cache = tmp_path / "cache"
    out1 = io.StringIO()
    run_suite(config, cache=str(cache), out=out1)
    original = fgl.cli.run_job
    ran = []
    monkeypatch.setattr(fgl.cli, "run_job", lambda job: ran.append(job) or original(job))
    run_suite(config, cache=str(cache), out=io.StringIO())
    assert ran == []  # same code: every record is replayed
    monkeypatch.setattr(fgl.cli, "code_fingerprint", lambda: "0.0+other")
    out2 = io.StringIO()
    assert run_suite(config, cache=str(cache), out=out2) == 0
    assert len(ran) == len(SMALL_SUITE)
    assert out2.getvalue() == out1.getvalue()
    assert all(json.loads(path.read_text())["fingerprint"] == "0.0+other"
               for path in cache.glob("*.json"))


SERIES_JOB = {"command": "series", "law": "multiplicative", "p": 2, "m": 4}


@pytest.mark.parametrize("config, message", [
    (None, "No such file or directory"),
    ({"jobs": [SERIES_JOB]}, "suite config must be a JSON list of job specs"),
    ([SERIES_JOB, {**SERIES_JOB, "pprec": 0}], "pprec must be a positive integer, got 0"),
])
def test_suite_usage_error_exits_one(tmp_path, capsys, config, message):
    path = tmp_path / "suite.json"
    if config is not None:
        path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "suite", "--config", str(path),
                             "--cache", str(tmp_path / "cache"))
    assert code == 1
    assert message in err and err.startswith("fgl suite: ") and err.count("\n") == 1


def test_suite_baseline_mismatch_exits_two(tmp_path, capsys):
    config, baseline = write_suite(tmp_path), tmp_path / "baseline.json"
    baseline.write_text(json.dumps(["0" * 64]))
    code, _, err = run_cli(capsys, "suite", "--config", config, "--baseline", str(baseline),
                           "--cache", str(tmp_path / "cache"))
    assert code == 2
    assert err.startswith("fgl suite: baseline mismatch")


def count_builds(monkeypatch, names) -> Counter:
    """Count calls of each named function through every binding a job looks up."""
    counts: Counter = Counter()
    for module in (fgl.cli, fgl.grouprings, fgl.tate):
        for name in names:
            if not hasattr(module, name):
                continue

            def counted(*args, _name=name, _fn=getattr(module, name)):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
    return counts


BUILDERS = ("multiplicative_law", "additive_law", "honda_law", "lubin_tate_height2_law")


def suite_outputs(tmp_path, jobs: list, name: str) -> dict:
    """The outputs by job hash of one run_suite call over ``jobs`` on a fresh cache."""
    config, cache = tmp_path / f"{name}.json", tmp_path / f"{name}-cache"
    config.write_text(json.dumps(jobs))
    assert run_suite(str(config), cache=str(cache), out=io.StringIO()) == 0
    records = [json.loads(path.read_text()) for path in cache.glob("*.json")]
    return {record["hash"]: record["outputs"] for record in records}


def test_shared_laws_give_the_outputs_of_lone_jobs_in_any_order(tmp_path):
    jobs = json.loads((ROOT / "suite" / "default.json").read_text())
    alone = {record["hash"]: record["outputs"] for record in map(run_job, jobs)}
    shuffled = random.Random(18).sample(jobs, len(jobs))
    assert shuffled != jobs
    assert suite_outputs(tmp_path, jobs, "in-order") == alone
    assert suite_outputs(tmp_path, shuffled, "shuffled") == alone


def test_laws_are_shared_within_one_run_suite_call_only(tmp_path, monkeypatch):
    counts = count_builds(monkeypatch, BUILDERS)
    config = str(WORKLOADS / "height2_modular.json")
    for calls in (1, 2):  # 9 jobs of 7 distinct laws, each call on a fresh cache
        assert run_suite(config, cache=str(tmp_path / f"cache{calls}"), out=io.StringIO()) == 0
        assert sum(counts.values()) == 7 * calls
    job = {"command": "series", "law": "multiplicative", "p": 2, "m": 4}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([job, {**job, "pprec": 0}]))
    with pytest.raises(ValueError, match="pprec"):
        run_suite(str(bad), cache=str(tmp_path / "bad-cache"), out=io.StringIO())
    assert fgl.cli._SHARED_LAWS.get(None) is None  # dropped on the way out, even on error


def test_lone_jobs_build_their_own_laws(monkeypatch):
    counts = count_builds(monkeypatch, BUILDERS)
    job = {"command": "series", "law": "multiplicative", "p": 2, "m": 4}
    assert run_job(job)["outputs"] == run_job(job)["outputs"]
    assert counts == {"multiplicative_law": 2}


def test_suite_fills_trunc_once_and_canonicalizes_once_per_record(tmp_path, monkeypatch):
    config = tmp_path / "jobs.json"
    config.write_text(json.dumps([{"command": "groupring", "law": "multiplicative",
                                   "p": 2, "type": "2"}]))
    counts = count_builds(monkeypatch, ("_default_trunc", "_canonical_job"))
    assert run_suite(str(config), cache=str(tmp_path / "cache"), out=io.StringIO()) == 0
    # one canonical job for the cache key, one for the record
    assert counts == {"_default_trunc": 1, "_canonical_job": 2}


def test_tate_job_builds_each_ring_once(monkeypatch):
    names = ("euler_class", "localization_kernel", "level_ring", "group_cohomology_ring")
    counts = count_builds(monkeypatch, names)
    record = run_job({"command": "tate", "law": "multiplicative", "p": 2, "type": "1"})
    assert record["outputs"]["passed"]
    assert counts == {name: 1 for name in names}


def test_level_job_builds_each_ring_once(monkeypatch):
    names = ("level_ring", "group_cohomology_ring")
    counts = count_builds(monkeypatch, names)
    record = run_job({"command": "level", "law": "multiplicative", "p": 2, "type": "2"})
    assert record["outputs"]["rank"] == 2
    assert counts == {name: 1 for name in names}


@pytest.mark.parametrize("r", [3, 7])
def test_sheaf_eval_job_builds_each_power_once(monkeypatch, r):
    counts = count_builds(monkeypatch, ("sheaf_eval",))
    record = run_job({"command": "sheaf-eval", "ring": "Z[t]; psi t -> t^2; p 2", "r": r})
    assert record["outputs"]["passed"]
    assert counts["sheaf_eval"] <= len({0, 1, 2, 3, 4, r})


def plant_psi2(monkeypatch, step):
    """sheaf_eval as a job looks it up, with psi^2 built by ``step`` from psi^1."""
    honest = fgl.cli.sheaf_eval

    def planted(ring, r):
        return SheafValue(ring, 2, step(ring, honest(ring, 1))) if r == 2 else honest(ring, r)

    monkeypatch.setattr(fgl.cli, "sheaf_eval", planted)


PLANTED_STEPS = {
    "one outside step too few": lambda ring, psi1: psi1.generator_images,
    # psi(t) = t^2 + 2t is still a Frobenius lift, so the congruence cannot see it
    "a wrong coefficient in psi(t)": lambda ring, psi1: {
        "t": psi1(ring.psi_images["t"] + ring.var("t") + ring.var("t"))},
}


@pytest.mark.parametrize("step", PLANTED_STEPS.values(), ids=PLANTED_STEPS)
def test_a_planted_outside_step_fails_composition_and_chains(monkeypatch, step):
    plant_psi2(monkeypatch, step)
    outputs = run_job({"command": "sheaf-eval", "ring": RING, "r": 3})["outputs"]
    assert (outputs["composition_law"], outputs["chains"], outputs["congruence"]) == \
        (False, False, True)
    assert not outputs["passed"]


@pytest.mark.parametrize("ring_text, r", [
    ("Z[t]; psi t -> t^2; p 2", 12), ("Z[s, t]; psi s -> s^2 + 2*t; psi t -> t^2 - 2*s*t; p 2", 4)])
def test_sheaf_eval_job_keeps_the_psi_tables_at_p_plus_one(monkeypatch, ring_text, r):
    # psi applied r times from the inside kept 3 * 2^(r-1) + 1 powers: 6,145 at r = 12
    rings = []
    parse = fgl.cli.parse_delta_ring
    monkeypatch.setattr(fgl.cli, "parse_delta_ring",
                        lambda *args, **kwargs: rings.append(parse(*args, **kwargs)) or rings[-1])
    assert run_job({"command": "sheaf-eval", "ring": ring_text, "r": r})["outputs"]["passed"]
    [ring] = rings
    assert ring._psi_powers
    assert all(len(table) <= ring.p + 1 for table in ring._psi_powers.values())


def test_level_stage_failure_names_stage_and_precision(capsys):
    # T=10 is below the stage-1 nilpotency depth (2^2 - 1)(8 + 6 - 1) = 39
    code, _, err = run_cli(capsys, "level", "--law", "lubinTate2", "--p", "2", "--type", "1,1",
                           "--pprec", "8", "--udeg", "6", "--trunc", "10")
    assert code == 2
    assert "TruncationTooSmall" in err
    assert "stage 2" in err and "p=2, N=8, D=6, T=10" in err


def test_level_cap_below_the_stage_one_depth_is_refused(capsys):
    # (3^2 - 1)(4 + 2 - 1) = 40: at T=30 the relation would depend on T
    code, out, err = run_cli(capsys, "level", "--law", "lubinTate2", "--p", "3", "--type", "1,1",
                             "--pprec", "4", "--udeg", "2", "--trunc", "30")
    assert code == 2 and out == ""
    assert "TruncationTooSmall" in err and "depth 40" in err
    assert "stage 2" in err and "p=3, N=4, D=2, T=30" in err


def test_law_cap_failure_names_precision(capsys):
    code, _, err = run_cli(capsys, "level", "--law", "lubinTate2", "--p", "2", "--type", "1,1",
                           "--pprec", "8", "--udeg", "6", "--trunc", "4")
    assert code == 2
    assert "TruncationTooSmall" in err and "p=2, N=8, D=6, T=4" in err


def test_level_default_cap_is_the_stage_one_nilpotency_depth():
    # (p^n - 1)(N + D - 1): 3 * 13 at the lubinTate2 defaults N = 8, D = 6
    assert _default_trunc({"command": "level", "law": "lubinTate2", "p": 2, "type": "1,1"}) == 39
    job = {"command": "level", "law": "lubinTate2", "p": 3, "type": "1,1", "pprec": 2, "udeg": 2}
    record = run_job(job)
    assert record["job"]["trunc"] == 24
    deeper = run_job({**job, "trunc": 24 + 12})
    assert record["outputs"]["relations"] == deeper["outputs"]["relations"]


def test_suite_cache_env_var(tmp_path, monkeypatch):
    config = write_suite(tmp_path)
    cachedir = tmp_path / "env-cache"
    monkeypatch.setenv("FGL_CACHE_DIR", str(cachedir))
    assert run_suite(config, out=io.StringIO()) == 0
    assert list(cachedir.glob("*.json"))


def test_empty_suite(tmp_path):
    config = tmp_path / "empty.json"
    config.write_text("[]")
    out = io.StringIO()
    assert run_suite(str(config), cache=str(tmp_path / "cache"), out=out) == 0
    assert "jobs: 0" in out.getvalue()


def test_prepare_warns_when_precision_cannot_see_valuation(capsys):
    code, out, _ = run_cli(capsys, "prepare", "--law", "lubinTate2", "--p", "2",
                           "--M", "2", "--pprec", "2", "--udeg", "2", "--trunc", "20")
    assert code == 0
    assert "cannot distinguish" in json.loads(out)["warning"]


def workload_group_ring_jobs() -> list:
    """Every job of the benchmark workloads that suite/default.json does not run."""
    suite = json.loads((ROOT / "suite" / "default.json").read_text())
    params = []
    for workload in ("tate_exact", "height2_modular"):
        for job in json.loads((WORKLOADS / f"{workload}.json").read_text()):
            if job not in suite:
                parts = [workload, job["command"], job["law"], f"p{job['p']}"]
                job_id = "-".join(parts + ([job["type"]] if "type" in job else []))
                params.append(pytest.param(workload, job, id=job_id))
    return params


@pytest.mark.parametrize("workload, job", workload_group_ring_jobs())
def test_workload_job_matches_committed_digest(workload, job):
    expected = json.loads((WORKLOADS / f"{workload}.baseline.json").read_text())
    assert run_job(job)["digest"] in expected


# every malformed input is a one-line usage error (exit 1), never a traceback
RING = "Z[t]; psi t -> t^2; p 2"
MALFORMED = [
    (["series", "--law", "honda", "--p", "2", "--height", "-1", "--m", "2", "--trunc", "6"],
     "height"),
    (["series", "--law", "honda", "--p", "2", "--height", "0", "--m", "2", "--trunc", "6"],
     "height"),
    (["check-axioms", "--law", "multiplicative", "--p", "2", "--pprec", "0"], "pprec"),
    (["check-axioms", "--law", "lubinTate2", "--p", "2", "--pprec", "0", "--trunc", "8"],
     "pprec"),
    (["check-axioms", "--law", "lubinTate2", "--p", "2", "--udeg", "0", "--trunc", "8"], "udeg"),
    (["prepare", "--law", "multiplicative", "--p", "2", "--M", "-1"], "M"),
    (["prepare", "--law", "multiplicative", "--p", "2", "--M", "-1", "--trunc", "16"], "M"),
    (["series", "--law", "multiplicative", "--p", "2", "--m", "3", "--trunc", "-5"], "trunc"),
    (["delta-check", "--ring", RING, "--samples", "-1"], "samples"),
    (["delta-check", "--ring", RING, "--samples", "0"], "samples"),
    (["delta-check", "--ring", "Z[t]; psi t -> t^^2; p 2"], "psi t -> t^^2"),
    (["delta-check", "--ring", "Z[t]; psi t -> t^2.7; p 2"], "psi t -> t^2.7"),
    (["delta-check", "--ring", "Z[t]; psi t -> 2.5*t; p 2"], "psi t -> 2.5*t"),
    (["delta-check", "--ring", "Z[t]; psi t; p 2"], "psi t"),
    (["delta-check", "--ring", "Z[t]; psi t -> t^2; psi s -> 5; p 2"], "psi s -> 5"),
    (["delta-check", "--ring", "Z[t]; psi t -> t^2; psi t -> t^3 + t; p 2"],
     "psi t -> t^3 + t"),
    (["delta-check", "--ring", "Zebra[t]; psi t -> t^2; p 2"], "Zebra[t]"),
    (["delta-check", "--ring", "Z[t; psi t -> t^2; p 2"], "Z[t"),
    (["delta-check", "--ring", "Z[t]; psi t -> t^2; p x"], "p x"),
    (["delta-check", "--ring", "Z[t]; psi t -> t^2; p 2; p 3"], "'p 3'"),
    (["delta-check", "--ring", "Z[if]; psi if -> if^2; p 2"], "Z[if]"),
    (["groupring", "--law", "multiplicative", "--p", "3", "--type", "1", "--height", "3"],
     "--height"),
    (["check-axioms", "--law", "lubinTate2", "--p", "2", "--height", "2", "--trunc", "8"],
     "--height"),
    (["level", "--law", "multiplicative", "--p", "2", "--type", "a"], "group type 'a'"),
    (["level", "--law", "multiplicative", "--p", "2", "--type", ""], "group type ''"),
    (["level", "--law", "multiplicative", "--p", "2", "--type", "1,,1"], "group type '1,,1'"),
    # well-formed numbers that name no supported group: a usage error too, not a failed check
    (["level", "--law", "multiplicative", "--p", "2", "--type=0"],
     "group type '0': cyclic factors need exponent >= 1"),
    (["level", "--law", "multiplicative", "--p", "2", "--type=-1"],
     "group type '-1': cyclic factors need exponent >= 1"),
    (["level", "--law", "multiplicative", "--p", "2", "--type=1,2"],
     "group type '1,2': exponents must be sorted descending"),
]


@pytest.mark.parametrize("argv, names", MALFORMED, ids=[" ".join(a) for a, _ in MALFORMED])
def test_malformed_input_is_a_one_line_usage_error(capsys, argv, names):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith(f"fgl {argv[0]}: ") and names in err


@pytest.mark.parametrize("law", ["multiplicative", "additive", "lubinTate2"])
def test_height_is_refused_on_laws_that_ignore_it(capsys, law):
    # it used to move only the default cap: multiplicative p=3 type 1 ran at T=31, not 16
    ring = {"command": "groupring", "law": law, "p": 3, "type": "1"}
    message = f"--height applies only to the honda law, not to {law}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        _default_trunc({**ring, "height": 3})
    job = {"command": "check-axioms", "law": law, "p": 3, "trunc": 10}
    assert run_job(job)["outputs"]["passed"]
    code, out, err = run_cli(capsys, "check-axioms", "--law", law, "--p", "3", "--trunc", "10",
                             "--height", "2")
    assert (code, out, err) == (1, "", f"fgl check-axioms: {message}\n")
    honda = {"command": "check-axioms", "law": "honda", "p": 3, "height": 1, "trunc": 8}
    assert run_job(honda)["outputs"]["passed"]


def test_each_distinct_ring_is_one_spec(tmp_path):
    # one CoeffRingSpec per distinct ring and process, cached replays included
    config = WORKLOADS / "height2_modular.json"
    jobs = [job for job in json.loads(config.read_text()) if "law" in job]
    fgl.cli._ring.cache_clear()
    rings = {fgl.cli._spec(job) for job in jobs}
    assert all(fgl.cli._spec(job) is fgl.cli._spec(dict(job)) for job in jobs)
    for _ in range(2):  # cold, then with every record cached
        assert run_suite(str(config), cache=str(tmp_path / "cache"), out=io.StringIO()) == 0
    assert fgl.cli._ring.cache_info().misses == len(rings) > 1


def test_trunc_zero_still_means_the_default():
    job = {"command": "series", "law": "multiplicative", "p": 2, "m": 8}
    assert run_job({**job, "trunc": 0})["digest"] == run_job(job)["digest"]


UNSUPPORTED = [("t^2 // 1", "unsupported operator //"), ("t^2 % 3", "unsupported operator %"),
               ("+t^2", "unsupported operator unary +"), ("f(t)", "unsupported syntax 'f(t)'")]


@pytest.mark.parametrize("image, message", UNSUPPORTED, ids=[i for i, _ in UNSUPPORTED])
def test_unsupported_syntax_errors_are_the_same_in_every_process(image, message):
    # no object address or ast dump: two processes print the same line
    argv = [sys.executable, "-m", "fgl.cli", "delta-check", "--ring", f"Z[t]; psi t -> {image}; p 2"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = [subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
            for _ in range(2)]
    assert [(r.returncode, r.stdout) for r in runs] == [(1, "")] * 2
    assert runs[0].stderr == runs[1].stderr == \
        f"fgl delta-check: clause 'psi t -> {image}': {message}\n"
