import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from skewmori import chambers, pfaffian, verify
from skewmori.chambers import conjecture_counts
from skewmori.cli import main
from skewmori.cones import Cone
from skewmori.pfaffian import Polynomial


# child interpreters import the package under test, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
    str(Path(chambers.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))))}


def run_cli(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def test_cones_text_output():
    code, out = run_cli("cones", "--n", "6", "--cone", "nef")
    assert code == 0
    assert "(1,0,0)" in out and "(2,-1,0)" in out and "(3,-2,-1)" in out


def test_cones_json_round_trip():
    code, out = run_cli("cones", "--n", "7", "--cone", "eff", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "cones"
    data = report["results"]
    cone = Cone.from_inequalities(data["facets"], data["rank"])
    assert [list(r) for r in cone.rays] == data["rays"]
    assert set(cone.rays) == {(0, 1, 0), (0, 0, 1), (4, -3, -2)}


def test_pfaffian_rendering():
    code, out = run_cli("pfaffian", "--size", "4", "--minor", "0,1,2,3")
    assert code == 0
    assert out.strip() == "z01*z23 - z02*z13 + z03*z12"


def test_pfaffian_json_reparses():
    code, out = run_cli("pfaffian", "--size", "6", "--minor", "0,1,2,3", "--json")
    report = json.loads(out)
    poly = Polynomial(5, {tuple(t["exp"]): t["coef"] for t in report["results"]["terms"]})
    assert len(poly.terms) == 3


def test_gkz_counts_small():
    code, out = run_cli("gkz", "--n", "4")
    assert code == 0 and "2 chambers" in out
    code, out = run_cli("gkz", "--n", "5")
    assert code == 0 and "3 chambers" in out


def test_toric_model_beyond_n8():
    # Regression values of the toric model at n = 9, where the computed number
    # of regions outside the movable cone (18) departs from the formula (14).
    code, out = run_cli("gkz", "--n", "9", "--json")
    results = json.loads(out)["results"]
    assert code == 0 and "toric refinement" in results["note"]
    assert (len(results["chambers"]), len(results["regions"])) == (34, 24)
    assert conjecture_counts(9) == (18, 14)
    # n = 10: 59 chambers and 25 regions; 19 regions outside the movable cone
    # against 15 predicted.
    code, out = run_cli("sbl", "--n", "10", "--json")
    results = json.loads(out)["results"]
    assert code == 0
    assert (len(results["chambers"]), len(results["regions"])) == (59, 25)
    assert conjecture_counts(10) == (19, 15)


def test_gkz_json_schema():
    code, out = run_cli("gkz", "--n", "6", "--json")
    report = json.loads(out)
    results = report["results"]
    assert results["n"] == 6
    assert len(results["chambers"]) == 5
    for ch in results["chambers"]:
        assert set(ch) == {"rays", "forced", "region"}
    assert len(results["regions"]) == 4


def test_sbl_output():
    code, out = run_cli("sbl", "--n", "6")
    assert code == 0
    assert "4 regions" in out
    assert "E1 u E2" in out


def test_classes_output():
    code, out = run_cli("classes", "--n", "8", "--json")
    report = json.loads(out)
    labels = {c["label"]: tuple(c["coeffs"]) for c in report["results"]["classes"]}
    assert labels["D8"] == (4, -3, -2, -1)
    assert labels["-K"] == (36, -20, -9, -2)
    assert report["results"]["fano_index"] == 1


def test_sample_seed_reproducible():
    _, first = run_cli("sample", "--n", "5", "--h", "2", "--seed", "9", "--json")
    _, second = run_cli("sample", "--n", "5", "--h", "2", "--seed", "9", "--json")
    assert first == second
    report = json.loads(first)
    assert report["results"]["rank"] == 4


def test_verify_single_suite():
    code, out = run_cli("verify", "--only", "cox")
    assert code == 0
    assert "PASS" in out and "1/1" in out


def test_chamber_command():
    code, out = run_cli("chamber", "--n", "6", "--point", "1,3,1")
    assert code == 0
    assert "maximal chamber" in out and "E1 u E2" in out


def test_domain_error_exit_code(capsys):
    code, _ = run_cli("cones", "--n", "3", "--cone", "mori")
    assert code == 3
    code, _ = run_cli("sample", "--n", "4", "--h", "0")
    assert code == 3
    code, _ = run_cli("chamber", "--n", "6", "--point", "1,3")
    assert code == 3
    for argv in (["--size", "4", "--minor", "0,0,1,1"], ["--size", "4", "--minor", "0,1,1,2"],
                 ["--size", "-3"], ["--size", "14"], ["--size", "16"],
                 ["--size", "100000", "--minor", "0,1,2,3"], ["--size", "1000000000"],
                 ["--size", "1000000000", "--json"], ["--size", "2237", "--minor", "0,1"],
                 ["--size", "32", "--minor", ",".join(map(str, range(12)))]):
        code, _ = run_cli("pfaffian", *argv)
        assert code == 3, argv
    code, _ = run_cli("gkz", "--n", "15")
    assert code == 3
    code, _ = run_cli("chamber", "--n", "16", "--point", "1,0,0,0,0,0,0,0")
    assert code == 3
    code, _ = run_cli("cones", "--n", "31", "--cone", "mov")
    assert code == 3
    for argv in (["multiplicity", "--n", "13"],
                 ["multiplicity", "--n", "13", "--k", "6", "--h", "1"],
                 ["verify", "--only", "multiplicity", "--n", "13"],
                 ["secant", "--n", "18"], ["secant", "--n", "20"],
                 ["secant", "--n", "18", "--h", "8"], ["secant", "--n", "8", "--h", "0"],
                 ["blowup1", "--n", "401"], ["blowup1", "--n", "1000"],
                 ["classes", "--n", "2501"], ["classes", "--n", "4001"],
                 ["classes", "--n", "10000"],
                 ["cones", "--n", "701", "--cone", "eff"],
                 ["cones", "--n", "1000", "--cone", "eff"],
                 ["cones", "--n", "100000000", "--cone", "mori"],
                 ["sample", "--n", "6", "--h", "2", "--bound", "1000001"],
                 ["secant", "--n", "8", "--bound", str(10 ** 30)],
                 ["secant", "--n", "15", "--bound", "1000000"],
                 ["secant", "--n", "18", "--h", "4", "--bound", "1000000"],
                 ["secant", "--n", "43", "--h", "1", "--bound", "1000000"],
                 ["sample", "--n", "1118", "--h", "1"], ["sample", "--n", "1600", "--h", "1"],
                 ["sample", "--n", "200", "--h", "100"]):
        code, _ = run_cli(*argv)
        assert code == 3, argv
    # a single query depends on (k, min(h, k + 1)) alone
    for argv in (["multiplicity", "--n", "10", "--k", "4", "--h", "5"],
                 ["multiplicity", "--n", "3200", "--k", "0", "--h", "1"]):
        code, _ = run_cli(*argv)
        assert code == 0, argv
    for argv in (["verify", "--only", "multiplicity", "--n", "0"],
                 ["verify", "--only", "multiplicity", "--n", "1"], ["verify", "--n", "-3"],
                 ["multiplicity", "--n", "0"], ["multiplicity", "--n", "-4"],
                 ["multiplicity", "--n", "1"]):
        code, _ = run_cli(*argv)
        assert code == 3 and "n must be at least 2" in capsys.readouterr().err, argv
    # the secant listing runs h over 1..(n + 1) // 2 - 1, empty below n = 3
    for argv in (["secant", "--n", "2"], ["secant", "--n", "-3"],
                 ["secant", "--n", "2", "--h", "1"]):
        code, _ = run_cli(*argv)
        assert code == 3 and "n must be at least 3" in capsys.readouterr().err, argv
    # single queries keep their range: z01 does not vanish at a rank-2 point of size 2
    code, out = run_cli("multiplicity", "--n", "1", "--k", "0", "--h", "1")
    assert code == 0 and out.splitlines()[1].split() == ["1", "0", "1", "0", "0"]
    code, out = run_cli("secant", "--n", "3")
    assert code == 0 and out.splitlines()[1:] == ["1 4   1     4"]


def test_bound_and_k_refused_before_any_work(monkeypatch, capsys):
    monkeypatch.setattr(pfaffian, "sub_pfaffian", lambda *a: pytest.fail("built p"))
    # main refuses --bound below 1 itself
    for argv in (["secant", "--n", "8", "--bound", "0"], ["secant", "--n", "8", "--bound", "-5"],
                 ["sample", "--n", "4", "--h", "1", "--bound", "0"]):
        code, _ = run_cli(*argv)
        assert code == 3 and "bound must be positive" in capsys.readouterr().err, argv
    with pytest.raises(ValueError, match="bound must be positive"):
        pfaffian.terracini_dim(8, 1, bound=0)
    # k < 0 is refused by the single query itself, before it builds the sub-Pfaffian
    code, _ = run_cli("multiplicity", "--n", "5", "--k", "-1", "--h", "1")
    err = capsys.readouterr().err
    assert code == 3 and "k must be >= 0" in err and "max_order" not in err


def test_secant_budget_edge():
    # a listing is priced as its largest h: accepted up to n = 17 at bound 100 and
    # n = 14 at 10^6; one h up to (17, 8) and (58, 1), and at 10^6 up to (17, 4)
    # and (42, 1), the work weighed by (bits / 7)^1.4
    work, budget, big = pfaffian.terracini_work, pfaffian.MAX_TERRACINI_WORK, 10 ** 6
    last = lambda n, bound: work(n, (n + 1) // 2 - 1, bound)
    assert last(17, 100) <= budget < last(18, 100)
    assert last(14, big) <= budget < last(15, big)
    assert work(17, 8, 100) <= budget < work(18, 8, 100)
    assert work(58, 1, 100) <= budget < work(59, 1, 100)
    assert work(17, 4, big) <= budget < work(18, 4, big)
    assert work(42, 1, big) <= budget < work(43, 1, big)


def test_pfaffian_report_budget_edge(monkeypatch, capsys):
    # C(size, 2) entries per term and for the variable list, at most 5 million:
    # the full Pfaffian up to size 12, 12 indices up to size 31, 8 up to 307 and
    # 2 up to 2236; the polynomial is stubbed, as only the guard is tested
    monkeypatch.setattr(pfaffian, "sub_pfaffian", lambda n, idx: Polynomial(n, {}))
    assert run_cli("pfaffian", "--size", "12")[0] == 0
    assert run_cli("pfaffian", "--size", "14")[0] == 3
    for size, count in ((31, 12), (307, 8), (2236, 2)):
        for grown, code in ((size, 0), (size + 1, 3)):
            minor = ",".join(map(str, range(count)))
            assert run_cli("pfaffian", "--size", str(grown), "--minor", minor)[0] == code
    assert "exceeds 5000000 entries" in capsys.readouterr().err


def test_sampling_budget_edge():
    # `sample` is priced by a fit to its times with --json: accepted up to n = 1117 at
    # h = 1, 1073 at h = 2 and 663 at h = 20 for bounds up to 127, up to 1039, 946 and
    # 402 at 10^6, and never at h = 100; one Taylor pass up to k = 5, at size 12
    sample, taylor = pfaffian.sample_work, pfaffian.taylor_work
    budget, big = pfaffian.MAX_SAMPLING_WORK, 10 ** 6
    for h, n, n_big in ((1, 1117, 1039), (2, 1073, 946), (20, 663, 402)):
        for bound in (1, 100):
            assert sample(n, h, bound) <= budget < sample(n + 1, h, bound), (h, bound)
        assert sample(n_big, h, big) <= budget < sample(n_big + 1, h, big), h
    assert budget < sample(199, 100, 1)
    assert taylor(5) <= budget < taylor(6)


def test_grid_edge_refused_before_any_build(monkeypatch, capsys):
    # the grid costs the passes it runs, one per k: 4.54e7 at n = 12, 1.16e9 at n = 13
    work = lambda n: sum(map(pfaffian.taylor_work, range((n + 1) // 2)))
    assert work(12) <= pfaffian.MAX_SAMPLING_WORK < work(13)
    assert run_cli("multiplicity", "--n", "12")[0] == 0
    monkeypatch.setattr(pfaffian, "sub_pfaffian", lambda *a: pytest.fail("built p"))
    for argv in (["multiplicity", "--n", "13"], ["verify", "--only", "multiplicity", "--n", "13"],
                 ["multiplicity", "--n", "1000000000"]):
        code, _ = run_cli(*argv)
        assert code == 3 and "multiplicity grid" in capsys.readouterr().err, argv
    # the passes are summed: with the budget at the k = 5 pass alone, n = 12 is refused too
    monkeypatch.setattr(pfaffian, "MAX_SAMPLING_WORK", pfaffian.taylor_work(5))
    code, _ = run_cli("multiplicity", "--n", "12")
    assert code == 3 and "multiplicity grid" in capsys.readouterr().err


def test_grid_draws_no_sample_and_reads_no_seed(monkeypatch):
    # the grid is exact at the normal form: verify's --seed is only echoed
    monkeypatch.setattr(pfaffian, "secant_sample", lambda *a, **k: pytest.fail("drew a sample"))
    for argv in (["--n", "8"], ["--n", "8", "--k", "3", "--h", "2"]):
        code, out = run_cli("multiplicity", *argv, "--json")
        assert code == 0 and set(json.loads(out)["config"]) == {"n", "k", "h"}, argv
    results = set()
    for seed in (0, 3, 7):
        code, out = run_cli("verify", "--only", "multiplicity", "--json", "--seed", str(seed))
        report = json.loads(out)
        assert code == 0 and report["config"] == {"n": None, "seed": seed}
        results.add(json.dumps(report["results"]))
    assert len(results) == 1


def test_verify_config_holds_no_bound():
    code, out = run_cli("verify", "--json", "--seed", "7")
    report = json.loads(out)
    assert code == 0 and report["config"] == {"n": None, "seed": 7}
    assert [c["name"] for c in report["results"]] == [name for name, *_ in verify.CRITERIA]


def test_dropped_options_are_usage_errors(capsys):
    # verify samples at the paper's bound: another bound is `secant --bound`
    verify_argv = [["--bound", "5"], ["--n", "-3", "--bound", "5"],
                   ["--only", "multiplicity", "--n", "4", "--bound", "30"],
                   ["--only", "multiplicity", "--n", "10", "--bound", "1000000"],
                   *(["--only", suite, "--bound", bound] for suite in ("multiplicity", "secant")
                     for bound in ("0", "1000000", "10000000"))]
    for argv in (["verify", "--trials", "5"], ["multiplicity", "--n", "8", "--trials", "5"],
                 ["multiplicity", "--n", "8", "--seed", "1"],
                 ["multiplicity", "--n", "8", "--bound", "5"],
                 *(["verify", *rest] for rest in verify_argv)):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err, argv


def test_single_query_edges(monkeypatch, capsys):
    # one query is priced as its passes at size 2k + 2, whatever n: k = 5 runs at any n
    # and k = 6 is refused before any build
    for n in ("11", "1000000"):
        code, out = run_cli("multiplicity", "--n", n, "--k", "5", "--h", "1")
        assert code == 0 and out.splitlines()[1].split() == [n, "5", "1", "5", "5"]
    monkeypatch.setattr(pfaffian, "sub_pfaffian", lambda *a: pytest.fail("built p"))
    for n, k in ((13, 6), (10 ** 10, 6), (10 ** 12, 10 ** 11)):
        code, _ = run_cli("multiplicity", "--n", str(n), "--k", str(k), "--h", "1")
        assert code == 3 and "exceeds the sampling budget" in capsys.readouterr().err, (n, k)


def test_broken_invariant_is_not_a_refusal(monkeypatch):
    # exit 3 is a documented refusal; an internal ArithmeticError propagates
    def broken(config):
        raise ArithmeticError("three chambers share a wall")

    monkeypatch.setattr(chambers, "gkz_chambers", broken)
    with pytest.raises(ArithmeticError, match="three chambers share a wall"):
        main(["blowup1", "--n", "5"])


def refuse_to_build(*args):
    raise AssertionError("a configuration was built")


def small_comb(n, k):
    assert min(k, n - k) < 64, "a huge binomial was computed"
    return math.comb(n, k)


@pytest.mark.parametrize("n", [15, 16, 1000, 10 ** 9])
def test_chamber_commands_refuse_rank_before_building(monkeypatch, capsys, n):
    # gkz and sbl are priced by work: n = 15 (rank 7) is refused, n = 14 runs;
    # past the budget's bit length the price needs no binomial
    monkeypatch.setattr(chambers, "VectorConfiguration", refuse_to_build)
    monkeypatch.setattr(chambers, "comb", small_comb)
    commands = [(["gkz"], "chamber decomposition of"), (["sbl"], "chamber decomposition of")]
    if n > 15:
        commands.append((["chamber", "--point", "1"], "chamber queries supported up to rank 7"))
    for argv, message in commands:
        code, _ = run_cli(*argv, "--n", str(n))
        err = capsys.readouterr().err
        assert code == 3 and message in err, argv
        assert argv[0] == "chamber" or "exceeds the work budget" in err, argv


def test_chamber_refuses_a_class_outside_eff_before_building(monkeypatch, capsys):
    monkeypatch.setattr(chambers, "VectorConfiguration", refuse_to_build)
    for n, point in ((15, "-1,0,0,0,0,0,0"), (8, "-1,0,0,0")):
        code, out = run_cli("chamber", "--n", str(n), f"--point={point}")
        assert (code, out) == (3, "")
        assert "class outside the effective cone" in capsys.readouterr().err


def test_internal_key_error_is_not_a_refusal(monkeypatch):
    # nothing in the package raises KeyError as a refusal, so one propagates
    def broken(config):
        raise KeyError("lost")

    monkeypatch.setattr(chambers, "gkz_chambers", broken)
    with pytest.raises(KeyError, match="lost"):
        main(["blowup1", "--n", "5"])


# SHA-256 of stdout and the exit code of each command, recorded at commit 32c6c42,
# before `main` became the only writer of reports
RECORDED_REPORTS = [
    ("gkz --n 8 --json", 0, "b87f3a4f90346f2b77449a874ff28a7dbc753f6ffadb6384a03000db15a40b29"),
    # recorded at 5f590d4
    ("gkz --n 12 --json", 0, "257650d54a1d076b1101e2adb34fdc9a45cc2643254d9c08bd09186873378235"),
    ("sbl --n 8", 0, "55cb088c334ec3fe2ac5b973c2dd27c3fb69a0db59e3a2c3dfc6715005f8b7b6"),
    ("blowup1 --n 7", 0, "0aa21d1ea2274bb1a0b3e7b753f6f4b89a3344b164b38c5942f735c1c5c09741"),
    ("blowup1 --n 7 --json", 0, "31d8b71a64366e9fda63893fc6d56e33e25bd55da0392b8eba8aaa057b77d80e"),
    ("classes --n 8", 0, "91391bf9525fcdf510b7be5cc080029eff935e3128dcde57f32448b7efacedec"),
    ("cones --n 6 --cone mov --json", 0,
     "b7e0d62c18fac660eaec3c97bdb9fff6fcf470105c799ac33448ad5588aa1335"),
    ("pfaffian --size 6 --json", 0, "f0b280fa22cfd6d08c1c3512818466a9fadb5209c4b61c0536f82e18c93b2630"),
    ("sample --n 7 --h 3 --seed 1", 0,
     "920b936bfc1030c90a4c26bc1b1a037d63cd7b956ffaa2dbd7c3085118784d72"),
    # recorded at 7b2b616
    ("sample --n 7 --h 3 --seed 1 --json", 0,
     "5f39e8ccc947ec11594849ba82f561712571673df4a8fcdd730bfd9fd7bf8933"),
    ("multiplicity --n 7 --k 2 --h 1", 0,
     "27186beccfdc6377b984f6ce5f951262c47130629c926ccc348679ce0445f615"),
    # the report of 1f930f4 less the config keys of the dropped --trials, --seed, --bound
    ("multiplicity --n 8 --json", 0, "04506bd59e05eb6fe4bf53ffe7474fa3346d72b6f2bd4d0dd54b9903ddce5691"),
    # the report of 123f000 less the config key of the dropped verify --bound
    ("verify --only multiplicity --json --seed 3", 0,
     "f578a2098a5f03f57f4fcd91581a5f3c3c45d7de7c06932e69852fe5e22568fb"),
    # recorded at 44b6164; the property suites invert their seeded skew draws
    ("verify --only properties --json --seed 1", 0,
     "9f032a1d08fe51e06609c1b63312b6cca7e6c6cb1a302222f53c9c5db23db59e"),
    ("verify --only properties --json --seed 2", 0,
     "a9f139b68a057faf58709dc0d11e81a29fc56f9fe30624bb49c5512b66a75d76"),
    ("secant --n 8", 0, "6c573e7b547b837ded6f17aa6dc0e838b892058c5644231fd847cd26c2f595b1"),
    # recorded at 7b2b616
    ("secant --n 8 --json", 0, "a572b21be96b06de714399fed6e05449d32542d12ce8f927ebd36dc2557bbcd3"),
    # recorded at b107a55; bound-1 draws with dependent points, y = -x and y = 0
    ("secant --n 3 --bound 1 --seed 292 --json", 0,
     "f672fdb8963c07ba03cad4b903a7c9ccc64b4c0e8d45333c408d0660ada8d236"),
    ("secant --n 5 --bound 1 --seed 25 --json", 0,
     "43c8b3a9aa523b5ccac32225746e3f6c72e3c63a043ae0483db92f1189500dba"),
    # the report of 123f000 less the config key of the dropped verify --bound
    ("verify --only fano --json", 0, "27f9d72545e432aabcf5a173a6037ed8b51e8c7422e76625380c904367175ad3"),
    # at n = 6 and 8: a maximal chamber, a face and a class outside Eff
    ("chamber --n 6 --point 1,3,1", 0, "0948fe773a3a1cad7f665288079b5ebf4051b51cf8026a5ca73e201bec7aa967"),
    ("chamber --n 6 --point 2,-1,0 --json", 0,
     "a0aa64ce8d43eebc7a477b089b5db082c7755dc5dca795aa66c38c83dbc9cf2d"),
    ("chamber --n 6 --point=-1,0,0", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("chamber --n 8 --point 10,-6,-3,-1 --json", 0,
     "e67c28eedbae329a87aa539d1ce22084878a0ed4962790af35b85df65e3f7303"),
    ("chamber --n 8 --point 5,1,1,1", 0, "a91403ff00637652fa308597959473613b7989bfa372d0943126cb017782a6a6"),
    ("chamber --n 8 --point 2,-1,0,0", 0, "8e196ff853760fdac9aeae236080a7805edac14e69e64acd96c9a691c27df518"),
    ("chamber --n 8 --point 4,-3,-2,-1 --json", 0,
     "216274d01c6395cf50a7f2c96330c7ec3154dc5ac6addf34c4dfa4ebdd5f41d9"),
    ("chamber --n 8 --point=-1,0,0,0 --json", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # recorded at 01a50df; a class on a face of a rank-6 chamber, its planes in 12 chunks of 8
    ("chamber --n 12 --point 51,-39,-27,-17,-11,0 --json", 0,
     "09d3c17beed484ceeef8e5a2d0c83d3abc7f56c88e805b7a1e8b4c3d2708b120"),
    # recorded at b6f0436; a class on a 2-ray face whose key has 2-byte fields and 3 zero planes
    ("chamber --n 8 --point 90,-30,0,0 --json", 0,
     "83e314152b13c1127fafcac23c0913d83ce282296e4af717cb0f5942504281f9"),
]


@pytest.mark.parametrize("command, code, digest", RECORDED_REPORTS)
def test_reports_match_recorded_digests(command, code, digest):
    got, out = run_cli(*command.split())
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_blowup_cap_report_and_peak_memory():
    # the single blow-up at its cap, n = 400 (20,100 independent pairs of degrees,
    # 200 of them kept as bases), in a fresh process: the peak resident set stays
    # near 18 MB, where a relation between every pair of bases would take it past
    # 75 MB.  A small launcher waits for the command, as a child's peak counts the
    # process it was forked from
    launcher = ("import os, subprocess, sys\n"
                "child = subprocess.Popen(sys.argv[1:])\n"
                "_, status, usage = os.wait4(child.pid, 0)\n"
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)")
    result = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-m", "skewmori.cli",
                             "blowup1", "--n", "400", "--json"], capture_output=True, env=CHILD_ENV)
    *err, code, peak_kib = result.stderr.decode().split()
    assert (result.returncode, err, code) == (0, [], "0")
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "5efa3e574351429d66baf319ced4ce41a50c78775434517ae4e17989c2bd7e85")
    assert int(peak_kib) < 40 * 1024


def test_usage_error_exit_code():
    for argv in (["cones", "--n", "6"], ["chamber", "--n", "6", "--point", "a,b,c"]):
        result = subprocess.run([sys.executable, "-m", "skewmori.cli", *argv],
                                capture_output=True, text=True, env=CHILD_ENV)
        assert result.returncode == 2, argv


def test_byte_identical_reports():
    cmd = [sys.executable, "-m", "skewmori.cli", "gkz", "--n", "6", "--json"]
    first = subprocess.run(cmd, capture_output=True, env=CHILD_ENV).stdout
    second = subprocess.run(cmd, capture_output=True, env=CHILD_ENV).stdout
    assert first == second and first


def test_verify_restricted_to_one_n():
    code, out = run_cli("verify", "--only", "multiplicity", "--n", "4")
    assert code == 0 and "PASS" in out


def test_multiplicity_grid_command():
    code, out = run_cli("multiplicity", "--n", "4", "--json")
    assert code == 0
    rows = json.loads(out)["results"]
    assert all(r["order"] == r["expected"] for r in rows)
    # the rows at n = 4 of the grid that verify replays
    assert [(r["n"], r["k"], r["h"], r["order"], r["expected"]) for r in rows] == [
        r for r in pfaffian.multiplicity_grid(range(2, 9)) if r[0] == 4]


def test_blowup1_command():
    code, out = run_cli("blowup1", "--n", "5")
    assert code == 0
    assert "[(0,1), (1,0))" in out and "B = sec2" in out


def test_tracer_finds_every_target(monkeypatch):
    # the benchmark's per-layer metrics read 0 for a traced name that is gone
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == []


def loaded_modules(code):
    """The names in sys.modules after running code in a fresh interpreter."""
    probe = code + "\nimport sys\nprint(' '.join(sys.modules))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, env=CHILD_ENV)
    return set(result.stdout.split())


def test_cli_import_loads_every_module_and_no_dataclasses():
    # the benchmark's tracer reads every module off sys.modules after importing cli
    loaded = loaded_modules("import skewmori.cli")
    assert "dataclasses" not in loaded
    assert {f"skewmori.{m}" for m in ("chambers", "cli", "cones", "geometry", "linalg",
                                      "pfaffian", "verify")} <= loaded


def pfaffian_layer_run(code):
    """Run code in a fresh interpreter, then tell for pfaffian and verify whether
    their bodies have run: a deferred module holds only import metadata until used."""
    probe = code + "\nimport sys" + "".join(
        f"\nprint({name!r} in object.__getattribute__(sys.modules['skewmori.{m}'], '__dict__'))"
        for m, name in (("pfaffian", "sub_pfaffian"), ("verify", "SUITES")))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, env=CHILD_ENV)
    return result.stdout.split()[-2:]


def test_cli_import_defers_the_pfaffian_layer():
    # registered in sys.modules, so the tracer finds them, but not yet run
    assert pfaffian_layer_run("import skewmori.cli") == ["False", "False"]
    assert pfaffian_layer_run("from skewmori import cli\ncli.build_parser()") == [
        "False", "False"]


def test_gkz_leaves_the_pfaffian_layer_unrun_and_verify_runs_it():
    gkz = "from skewmori import cli\ncli.main(['gkz', '--n', '4', '--json'])"
    assert pfaffian_layer_run(gkz) == ["False", "False"]
    fano = gkz + "\ncli.main(['verify', '--only', 'fano'])"
    assert pfaffian_layer_run(fano) == ["True", "True"]


def test_multiplicity_runs_the_pfaffian_layer_and_leaves_verify_unrun():
    grid = "from skewmori import cli\ncli.main(['multiplicity', '--n', '4'])"
    assert pfaffian_layer_run(grid) == ["True", "False"]


def test_unknown_suite_is_a_usage_error_naming_the_suites():
    result = subprocess.run([sys.executable, "-m", "skewmori.cli", "verify", "--only", "nope"],
                            capture_output=True, text=True, env=CHILD_ENV)
    assert result.returncode == 2 and "invalid choice: 'nope'" in result.stderr
    assert all(repr(suite) in result.stderr for suite in verify.SUITES)


def test_chambers_import_skips_pfaffian():
    loaded = loaded_modules("from skewmori import chambers")
    assert "skewmori.chambers" in loaded
    assert "dataclasses" not in loaded and "skewmori.pfaffian" not in loaded
