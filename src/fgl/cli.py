"""Command-line front end and the deterministic regression suite.

Every job is described by a flat JobSpec dict; identical specs produce
byte-identical canonical-JSON outputs, which makes results content
addressable: the suite caches records under sha256(canonical spec) and
compares sha256(canonical outputs) digests against a committed baseline.
A cached record is reused only when the code fingerprint it was written
under (version plus a hash of the package sources) is the running one.
Wall-clock duration is recorded for humans but kept out of digests and out
of printed tables, so two runs of the same suite print identical bytes.

Exit codes: 0 success, 1 usage error, 2 mathematical check failure.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import hashlib
import json
import os
import pathlib
import random
import sys
import tempfile
import time

from . import __version__
from .coeffring import CoeffRingSpec
from .deltaring import (
    congruence_check,
    cyclic_chains,
    elementary_rank2_chains,
    frobenius_chain_check,
    parse_delta_ring,
    sheaf_eval,
)
from .errors import BaselineMismatch, FGLError
from .grouprings import AbelianPType, group_cohomology_ring, quotient_to_level, stage_one_depth
from .laws import (
    FormalGroupLaw,
    additive_law,
    honda_law,
    lubin_tate_height2_law,
    multiplicative_law,
)
from .tate import euler_image_in_level, factor_invertibility_check, level_to_tate_map
from .weierstrass import weierstrass_prepare

LAWS = ("multiplicative", "additive", "honda", "lubinTate2")
# the keys of a job after "command", in the order its canonical form keeps them
_JOB_KEYS = ("law", "p", "m", "M", "height", "type", "pprec", "udeg", "trunc", "ring", "samples",
             "r", "seed")
_SHARED_LAWS = contextvars.ContextVar("shared_laws")  # set only while run_suite runs its jobs
_ring = functools.cache(CoeffRingSpec)  # one spec, with its stored-form closures, per ring


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def job_hash(job: dict) -> str:
    return hashlib.sha256(canonical_json(job).encode()).hexdigest()


def outputs_digest(outputs: dict) -> str:
    return hashlib.sha256(canonical_json(outputs).encode()).hexdigest()


@functools.cache
def code_fingerprint() -> str:
    """``__version__`` plus a sha256 of the package sources, read once per process."""
    digest = hashlib.sha256()
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return f"{__version__}+{digest.hexdigest()}"


def _positive(job: dict, key: str, default):
    """``job[key]`` as an int, which must be >= 1; ``default`` when the job has none."""
    value = default if job.get(key) is None else int(job[key])
    if value is not None and value < 1:
        raise ValueError(f"{key} must be a positive integer, got {value}")
    return value


def _spec(job: dict) -> CoeffRingSpec:
    """The coefficient ring of the job's law; lubinTate2 defaults to N = 8, D = 6."""
    name = job["law"]
    if name not in LAWS:
        raise ValueError(f"unknown law {name!r} (choose from {', '.join(LAWS)})")
    if name != "honda" and job.get("height") is not None:  # it would move only the default cap
        raise ValueError(f"--height applies only to the honda law, not to {name}")
    p = int(job["p"])
    if name in ("multiplicative", "additive"):
        return _ring(p=p, p_precision=_positive(job, "pprec", None))
    if name == "honda":
        return _ring(p=p, p_precision=1)
    return _ring(p=p, p_precision=_positive(job, "pprec", 8), deformation_params=1,
                 u_degree_cap=_positive(job, "udeg", 6))  # lubinTate2


def _build_law(job: dict) -> FormalGroupLaw:
    spec, trunc = _spec(job), int(job["trunc"])
    height = _positive(job, "height", 1) if job["law"] == "honda" else None
    laws, key = _SHARED_LAWS.get({}), (job["law"], spec, trunc, height)  # {}: outside run_suite
    if key not in laws:
        build = {"multiplicative": multiplicative_law, "additive": additive_law,
                 "honda": honda_law, "lubinTate2": lubin_tate_height2_law}[job["law"]]
        laws[key] = build(spec, height, trunc) if height else build(spec, trunc)
    return laws[key]


def _default_trunc(job: dict) -> int:
    command = job["command"]
    if command == "series":
        return max(16, int(job.get("m", 1)) + 2)
    if command not in ("prepare", "groupring", "level", "tate"):
        return 16
    spec = _spec(job)
    p = spec.p
    # a deformation ring has height deformation_params + 1; otherwise the job says
    n = spec.height if spec.deformation_params else _positive(job, "height", 1)
    if command == "prepare":
        return max(16, p ** (_positive(job, "M", 1) * n) + 4)
    gtype = AbelianPType.parse(str(job.get("type", "1")))
    need = max(p ** (m * n) for m in gtype.exponents) + 4
    if command == "level" and gtype.rank > 1 and not spec.exact:
        need = max(need, stage_one_depth(spec, n))
    return max(16, need)


def _with_trunc(job: dict) -> dict:
    """A copy of the job whose missing or zero ``trunc`` is the command's default."""
    job = dict(job)
    if not job.get("trunc"):
        job["trunc"] = _default_trunc(job)
    _positive(job, "trunc", None)  # a negative cap is a usage error, not a failed check
    return job


def run_job(job: dict) -> dict:
    """Execute one JobSpec; returns the full ResultRecord."""
    job = _with_trunc(job)
    started = time.perf_counter()
    outputs = _dispatch(job["command"], job)
    duration = time.perf_counter() - started
    canonical = _canonical_job(job)
    return {
        "hash": job_hash(canonical),
        "job": canonical,
        "outputs": outputs,
        "digest": outputs_digest(outputs),
        "version": __version__,
        "fingerprint": code_fingerprint(),
        "duration_s": round(duration, 6),
    }


def _canonical_job(job: dict) -> dict:
    return {key: job[key] for key in ("command", *_JOB_KEYS) if job.get(key) is not None}


def _dispatch(command: str, job: dict) -> dict:
    if command == "series":
        law = _build_law(job)
        m = int(job.get("m", 1))
        return {"command": command, "law": law.name, "p": law.spec.p, "m": m,
                "trunc": law.cap, "series": law.n_series(m).to_json()}
    if command == "check-axioms":
        law = _build_law(job)
        axioms = law.check_axioms()
        return {"command": command, "law": law.name, "p": law.spec.p,
                "trunc": law.cap, "axioms": axioms, "passed": all(axioms.values())}
    if command == "prepare":
        law = _build_law(job)
        M, pprec = _positive(job, "M", 1), law.spec.p_precision
        fact = weierstrass_prepare(law.n_series(law.spec.p ** M))
        out = {"command": command, "law": law.name, "p": law.spec.p, "M": M,
               "degree": fact.degree, "unit": fact.unit.to_json(),
               "distinguished": fact.distinguished.to_json()}
        if pprec is not None and pprec <= M:
            out["warning"] = (f"p-precision {pprec} cannot distinguish p^{M} from 0; "
                              "valuation claims are vacuous")
        return out
    if command in ("groupring", "level"):
        law = _build_law(job)
        gtype = AbelianPType.parse(str(job["type"]))
        out = {"command": command, "law": law.name, "p": law.spec.p, "type": str(gtype),
               "dual_identified_with_group": True}
        if command == "groupring":
            return {**group_cohomology_ring(law, gtype).to_json(), **out}
        alg = quotient_to_level(law, gtype).target  # raises if any relation survives
        return {**alg.to_json(), **out, "ambient_relations_killed": True}
    if command == "tate":
        law = _build_law(job)
        gtype = AbelianPType.parse(str(job["type"]))
        report = level_to_tate_map(law, gtype)
        factors = factor_invertibility_check(report.euler, report.localized)
        euler_img = None
        if gtype.exponents == (1,):
            euler_img = euler_image_in_level(report.euler, report.level).to_json()
        return {"command": command, "law": law.name, "p": law.spec.p,
                "type": str(gtype), "levelRank": report.level.rank,
                "tateRank": report.localized.quotient_rank, "iso": report.bijective,
                "factorsInvertible": factors.all_invertible,
                "factorsChecked": len(factors.invertible),
                "eulerImageInLevel": euler_img,
                "passed": report.bijective and factors.all_invertible}
    if command == "delta-check":
        ring = parse_delta_ring(str(job["ring"]),
                                default_p=int(job["p"]) if job.get("p") else None)
        samples = _positive(job, "samples", 100)
        seed = int(job.get("seed", 0))
        rng = random.Random(seed)
        pairs = [(ring.random_element(rng), ring.random_element(rng))
                 for _ in range(samples)]
        report = ring.check_axioms(pairs)
        return {"command": command, "ring": str(job["ring"]), "p": ring.p,
                "samples": samples, "seed": seed, **report}
    if command == "sheaf-eval":
        ring = parse_delta_ring(str(job["ring"]),
                                default_p=int(job["p"]) if job.get("p") else None)
        r = int(job.get("r", 1))
        # r itself and every power the composition law below needs, each built once
        values = {k: sheaf_eval(ring, k) for k in sorted({r, *range(5)})}
        sv = values[r]
        comp_ok = all(values[r1].compose(values[r2]).generator_images
                      == values[r1 + r2].generator_images for r1 in range(3) for r2 in range(3))
        rng = random.Random(int(job.get("seed", 0)))
        cong = congruence_check(values[max(r, 1)], [ring.random_element(rng) for _ in range(20)])
        chains_ok = frobenius_chain_check(values[2], cyclic_chains(2))["passed"] and \
            frobenius_chain_check(values[2], elementary_rank2_chains(ring.p))["passed"]
        return {"command": command, "ring": str(job["ring"]), "r": r,
                "generator_images": {g: sv.generator_images[g].to_json()
                                     for g in ring.generators},
                "composition_law": comp_ok, "congruence": cong["passed"],
                "chains": chains_ok,
                "passed": comp_ok and cong["passed"] and chains_ok}
    raise ValueError(f"unknown command {command!r}")


def record_passed(record: dict) -> bool:
    outputs = record["outputs"]
    return bool(outputs.get("passed", True))


# -- suite -----------------------------------------------------------------------


def cache_dir_from_env(explicit: str | None = None) -> str:
    return explicit or os.environ.get("FGL_CACHE_DIR") or ".fgl-cache"


def _cache_load(cache: str, h: str) -> dict | None:
    path = os.path.join(cache, h + ".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("hash") != h or "outputs" not in record:
            return None
        if record.get("fingerprint") != code_fingerprint():
            return None  # written by other code: recompute
        if record.get("digest") != outputs_digest(record["outputs"]):
            return None  # corrupted entry: recompute transparently
        return record
    except (OSError, ValueError):
        return None


def _cache_store(cache: str, record: dict) -> None:
    os.makedirs(cache, exist_ok=True)
    path = os.path.join(cache, record["hash"] + ".json")
    fd, tmp = tempfile.mkstemp(dir=cache, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(record))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_suite(config_path: str, baseline_path: str | None = None,
              cache: str | None = None, update_baseline: bool = False,
              out=sys.stdout) -> int:
    with open(config_path, "r", encoding="utf-8") as fh:
        jobs = json.load(fh)
    if not isinstance(jobs, list):
        raise ValueError("suite config must be a JSON list of job specs")
    cache = cache_dir_from_env(cache)

    def run_one(job: dict) -> dict:
        job = _with_trunc(job)  # run_job then finds trunc filled and keeps it
        h = job_hash(_canonical_job(job))
        cached = _cache_load(cache, h)
        if cached is not None:
            return cached
        record = run_job(job)
        _cache_store(cache, record)
        return record

    token = _SHARED_LAWS.set({})  # jobs of this call share laws; no later call sees them
    try:
        records = [run_one(job) for job in jobs]
    finally:
        _SHARED_LAWS.reset(token)

    all_passed = True
    for record in records:
        ok = record_passed(record)
        all_passed = all_passed and ok
        label = " ".join(
            str(record["job"].get(k)) for k in ("command", "law", "p", "type", "m", "M", "r")
            if record["job"].get(k) is not None
        )
        print(f"{'PASS' if ok else 'FAIL'}  {record['digest'][:16]}  {label}", file=out)
    digests = sorted(record["digest"] for record in records)
    print(f"jobs: {len(records)}  suite-digest: "
          f"{hashlib.sha256(canonical_json(digests).encode()).hexdigest()[:16]}", file=out)

    if baseline_path:
        if update_baseline:
            with open(baseline_path, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(digests) + "\n")
        else:
            try:
                with open(baseline_path, "r", encoding="utf-8") as fh:
                    expected = json.load(fh)
            except (OSError, ValueError) as exc:
                raise BaselineMismatch(f"cannot read baseline: {exc}")
            if expected != digests:
                missing = sorted(set(expected) - set(digests))
                extra = sorted(set(digests) - set(expected))
                raise BaselineMismatch(
                    f"baseline mismatch: missing {missing[:4]}, new {extra[:4]}"
                )
            print("baseline: OK", file=out)
    return 0 if all_passed else 2


# -- argument parsing -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _add_law_args(sub):
    sub.add_argument("--law", required=True, choices=LAWS)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--height", type=int, help="height for the honda law")
    sub.add_argument("--pprec", type=int, help="p-precision N (omit for exact)")
    sub.add_argument("--udeg", type=int, help="u-degree cap for lubinTate2")
    sub.add_argument("--trunc", type=int, help="series degree cap")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fgl", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("series", parents=[], help="print the m-series of a law")
    _add_law_args(s)
    s.add_argument("--m", type=int, required=True)

    s = subs.add_parser("check-axioms", help="verify unit/commutativity/associativity")
    _add_law_args(s)

    s = subs.add_parser("prepare", help="Weierstrass preparation of [p^M](x)")
    _add_law_args(s)
    s.add_argument("--M", type=int, required=True)

    for name in ("groupring", "level", "tate"):
        s = subs.add_parser(name)
        _add_law_args(s)
        s.add_argument("--type", required=True, help="comma-separated exponents, e.g. 2 or 1,1")

    s = subs.add_parser("delta-check", help="check delta-ring laws on random samples")
    s.add_argument("--ring", required=True, help='e.g. "Z[t]; psi t -> t^2"')
    s.add_argument("--p", type=int, help="prime (may also appear in the ring string)")
    s.add_argument("--samples", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)

    s = subs.add_parser("sheaf-eval", help="evaluate the deformation sheaf")
    s.add_argument("--ring", required=True)
    s.add_argument("--p", type=int, help="prime (may also appear in the ring string)")
    s.add_argument("--r", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)

    s = subs.add_parser("suite", help="run a suite config with caching and baseline diff")
    s.add_argument("--config", required=True)
    s.add_argument("--baseline")
    s.add_argument("--cache")
    s.add_argument("--update-baseline", action="store_true")

    for name, sub in subs.choices.items():
        if name != "suite":
            sub.add_argument("--output", help="write the full result record to a file")
            sub.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _job_from_args(args: argparse.Namespace) -> dict:
    job = {"command": args.command}
    for key in _JOB_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            job[key] = value
    return job


def _print_text(outputs: dict, out) -> None:
    for key in sorted(outputs):
        print(f"{key}: {canonical_json(outputs[key])}", file=out)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "suite":
        try:
            return run_suite(args.config, baseline_path=args.baseline, cache=args.cache,
                             update_baseline=args.update_baseline)
        except (FGLError, OSError, ValueError) as exc:  # a check failed (2), or usage (1)
            print(f"fgl suite: {exc}", file=sys.stderr)
            return 2 if isinstance(exc, FGLError) else 1
    try:
        record = run_job(_job_from_args(args))
    except FGLError as exc:
        print(f"fgl {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"fgl {args.command}: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "output", None):
        try:
            pathlib.Path(args.output).write_text(canonical_json(record) + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"fgl {args.command}: cannot write {args.output}: {exc.strerror}",
                  file=sys.stderr)
            return 1
    if args.format == "text":
        _print_text(record["outputs"], sys.stdout)
    else:
        print(canonical_json(record["outputs"]))
    return 0 if record_passed(record) else 2


if __name__ == "__main__":
    sys.exit(main())
