import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from skewmori import chambers, pfaffian
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
                 ["--size", "-3"], ["--size", "16"], ["--size", "100000", "--minor", "0,1,2,3"],
                 ["--size", "1000000000"]):
        code, _ = run_cli("pfaffian", *argv)
        assert code == 3, argv
    code, _ = run_cli("gkz", "--n", "14")
    assert code == 3
    code, _ = run_cli("chamber", "--n", "16", "--point", "1,0,0,0,0,0,0,0")
    assert code == 3
    code, _ = run_cli("cones", "--n", "31", "--cone", "mov")
    assert code == 3
    for argv in (["multiplicity", "--n", "11"],
                 ["multiplicity", "--n", "13", "--k", "6", "--h", "1"],
                 ["verify", "--only", "multiplicity", "--n", "12"],
                 ["secant", "--n", "16"], ["secant", "--n", "20"],
                 ["secant", "--n", "18", "--h", "8"], ["secant", "--n", "8", "--h", "0"],
                 ["blowup1", "--n", "401"], ["blowup1", "--n", "1000"],
                 ["classes", "--n", "4001"], ["classes", "--n", "10000"],
                 ["cones", "--n", "701", "--cone", "eff"],
                 ["cones", "--n", "1000", "--cone", "eff"],
                 ["cones", "--n", "100000000", "--cone", "mori"],
                 ["multiplicity", "--n", "8", "--trials", "21"],
                 ["multiplicity", "--n", "8", "--k", "3", "--h", "1", "--trials", "10000000"],
                 ["verify", "--trials", "10000000"],
                 ["multiplicity", "--n", "8", "--k", "3", "--h", "1", "--bound", str(10 ** 30)],
                 ["sample", "--n", "6", "--h", "2", "--bound", "1000001"],
                 ["secant", "--n", "8", "--bound", str(10 ** 30)],
                 ["secant", "--n", "14", "--bound", "1000000"],
                 ["verify", "--only", "secant", "--bound", str(10 ** 7)],
                 ["sample", "--n", "1600", "--h", "1"], ["sample", "--n", "200", "--h", "100"],
                 ["multiplicity", "--n", "3200", "--k", "0", "--h", "1"],
                 ["multiplicity", "--n", "11", "--k", "5", "--h", "1"],
                 ["multiplicity", "--n", "10", "--trials", "14", "--bound", "1000000"],
                 ["verify", "--only", "multiplicity", "--n", "10", "--trials", "20",
                  "--bound", "1000000"]):
        code, _ = run_cli(*argv)
        assert code == 3, argv
    # the largest multiplicity-grid estimate at the --trials cap stays accepted
    code, _ = run_cli("multiplicity", "--n", "10", "--k", "4", "--h", "5", "--trials", "20")
    assert code == 0
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
    # single estimates keep their range: z01 does not vanish at a rank-2 point of size 2
    code, out = run_cli("multiplicity", "--n", "1", "--k", "0", "--h", "1")
    assert code == 0 and out.splitlines()[1].split() == ["1", "0", "1", "0", "0"]
    code, out = run_cli("secant", "--n", "3")
    assert code == 0 and out.splitlines()[1:] == ["1 4   1     4"]


def test_bound_and_k_refused_before_any_work(monkeypatch, capsys):
    for argv in (["secant", "--n", "8", "--bound", "0"], ["secant", "--n", "8", "--bound", "-5"],
                 ["verify", "--only", "secant", "--bound", "0"]):
        code, _ = run_cli(*argv)
        assert code == 3 and "bound must be positive" in capsys.readouterr().err, argv
    with pytest.raises(ValueError, match="bound must be positive"):
        pfaffian.terracini_dim(8, 1, bound=0)
    # k < 0 is refused by the estimate itself, before it builds the sub-Pfaffian
    monkeypatch.setattr(pfaffian, "sub_pfaffian", lambda *a: pytest.fail("built p"))
    code, _ = run_cli("multiplicity", "--n", "5", "--k", "-1", "--h", "1")
    err = capsys.readouterr().err
    assert code == 3 and "k must be >= 0" in err and "max_order" not in err


def test_secant_budget_edge():
    # the secant listing is accepted up to n = 15; one h up to (17, 8) and (50, 1)
    work, budget = pfaffian.terracini_work, pfaffian.MAX_TERRACINI_WORK
    assert sum(work(15, h) for h in range(1, 8)) <= budget < sum(work(16, h) for h in range(1, 8))
    assert work(17, 8) <= budget < work(18, 8)
    assert work(50, 1) <= budget < work(60, 1)


def test_sampling_budget_edge():
    # `sample` is accepted up to n = 1100 at h = 1 and a single estimate at
    # (n, k, h) = (11, 5, 1) for one trial; every grid estimate (n <= 10) at the caps
    sample, taylor = pfaffian.sample_work, pfaffian.taylor_work
    budget, bound = pfaffian.MAX_SAMPLING_WORK, 10 ** 6
    assert sample(1100, 1, 100) <= budget < sample(1110, 1, 100)
    assert taylor(11, 5) + sample(11, 1, 100) <= budget < 2 * taylor(11, 5)
    assert 20 * max(taylor(10, k) + sample(10, h, bound)
                    for k in range(5) for h in range(1, 6)) <= budget


def test_grid_budget_edge(monkeypatch, capsys):
    # the grid weighs trials x (taylor_work + sample_work) over its entries, one
    # trial where h > k: n = 10 runs up to 13 trials at bound 10^6, and no grid
    # past n = 10 runs; the estimates are stubbed, as only the guard is tested
    monkeypatch.setattr(pfaffian, "_capped_minimum", lambda n, k, h, *args: max(k - h + 1, 0))
    for argv in (["verify", "--only", "multiplicity"],
                 ["verify", "--only", "multiplicity", "--trials", "20", "--bound", "1000000"],
                 ["multiplicity", "--n", "10"],
                 ["multiplicity", "--n", "10", "--trials", "13", "--bound", "1000000"]):
        assert run_cli(*argv)[0] == 0, argv
    for argv in (["multiplicity", "--n", "10", "--trials", "14", "--bound", "1000000"],
                 ["multiplicity", "--n", "11", "--trials", "1"],
                 ["verify", "--only", "multiplicity", "--n", "12", "--trials", "1"]):
        code, _ = run_cli(*argv)
        assert code == 3 and "multiplicity grid" in capsys.readouterr().err, argv


@pytest.mark.parametrize("n", [16, 1000])
def test_chamber_commands_refuse_rank_before_building(monkeypatch, capsys, n):
    def build(*args):
        raise AssertionError("a configuration was built")

    monkeypatch.setattr(chambers, "VectorConfiguration", build)
    for argv, message in ((["gkz"], "chamber decomposition supported up to rank 6"),
                          (["sbl"], "chamber decomposition supported up to rank 6"),
                          (["chamber", "--point", "1"], "chamber queries supported up to rank 7")):
        code, _ = run_cli(*argv, "--n", str(n))
        assert code == 3 and message in capsys.readouterr().err, argv


# SHA-256 of stdout and the exit code of each command, recorded at commit 32c6c42,
# before `main` became the only writer of reports
RECORDED_REPORTS = [
    ("gkz --n 8 --json", 0, "b87f3a4f90346f2b77449a874ff28a7dbc753f6ffadb6384a03000db15a40b29"),
    ("sbl --n 8", 0, "55cb088c334ec3fe2ac5b973c2dd27c3fb69a0db59e3a2c3dfc6715005f8b7b6"),
    ("blowup1 --n 7", 0, "0aa21d1ea2274bb1a0b3e7b753f6f4b89a3344b164b38c5942f735c1c5c09741"),
    ("blowup1 --n 7 --json", 0, "31d8b71a64366e9fda63893fc6d56e33e25bd55da0392b8eba8aaa057b77d80e"),
    ("classes --n 8", 0, "91391bf9525fcdf510b7be5cc080029eff935e3128dcde57f32448b7efacedec"),
    ("cones --n 6 --cone mov --json", 0,
     "b7e0d62c18fac660eaec3c97bdb9fff6fcf470105c799ac33448ad5588aa1335"),
    ("pfaffian --size 6 --json", 0, "f0b280fa22cfd6d08c1c3512818466a9fadb5209c4b61c0536f82e18c93b2630"),
    ("sample --n 7 --h 3 --seed 1", 0,
     "920b936bfc1030c90a4c26bc1b1a037d63cd7b956ffaa2dbd7c3085118784d72"),
    ("multiplicity --n 7 --k 2 --h 1", 0,
     "27186beccfdc6377b984f6ce5f951262c47130629c926ccc348679ce0445f615"),
    ("multiplicity --n 8 --json", 0, "9d19a426ddaca59222ad60e46b9a4c2c1b64ecd5f3676c3f413d10f508680a96"),
    ("verify --only multiplicity --json --seed 3", 0,
     "c4c1f45cb2d09b6fe3a80c81f2fba38ce8e15d45647d682682a6e57c7801d0d7"),
    ("secant --n 8", 0, "6c573e7b547b837ded6f17aa6dc0e838b892058c5644231fd847cd26c2f595b1"),
    ("verify --only fano --json", 0, "b77a4528c4adcfe224e6efded9fb7d185f0ff3b6622362300c042f7f4a5b1cf0"),
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
]


@pytest.mark.parametrize("command, code, digest", RECORDED_REPORTS)
def test_reports_match_recorded_digests(command, code, digest):
    got, out = run_cli(*command.split())
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


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
    code, out = run_cli("verify", "--only", "multiplicity", "--n", "4",
                        "--trials", "2", "--bound", "30")
    assert code == 0 and "PASS" in out


def test_multiplicity_grid_command():
    code, out = run_cli("multiplicity", "--n", "4", "--trials", "2",
                        "--bound", "20", "--json")
    assert code == 0
    rows = json.loads(out)["results"]
    assert all(r["order"] == r["expected"] for r in rows)


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


def test_chambers_import_skips_pfaffian():
    loaded = loaded_modules("from skewmori import chambers")
    assert "skewmori.chambers" in loaded
    assert "dataclasses" not in loaded and "skewmori.pfaffian" not in loaded
