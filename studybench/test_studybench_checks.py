"""Self-test of the benchmark's output checks: wrong outputs are caught."""

from checks import Expected, check_certify, check_metrics

CERTIFY_HEADER = "benchmark,mu,K,required,rank,cond,satisfied"
METRICS_HEADER = "benchmark,nbar,n,mu,method,split,avg_rel_error,traj_diff,diverged,residual"

EXPECTED = Expected(
    train_mus=(0.1, 1.0),
    test_mus=(0.55,),
    dims=(2,),
    nbar=10,
    degree=2,
    input_dim=1,
    pieces=3,
    horizon=100,
    traj_diff_max=1e-8,
)


def _write(path, header, lines):
    path.write_text("\n".join([header, *lines]) + "\n")
    return str(path)


def _certify(tmp_path, required=66):
    lines = [
        f"burgers,{mu},300,{required},{required},1.5e6,true" for mu in ("0.1", "1")
    ]
    return _write(tmp_path / "certify.csv", CERTIFY_HEADER, lines)


def _metrics(tmp_path, reproj_diff="4e-11"):
    lines = []
    for split, mus in (("train", ("0.1", "1")), ("test", ("0.55000000000000004",))):
        for mu in mus:
            lines.append(f"burgers,10,2,{mu},intrusive,{split},0.01,nan,false,nan")
            lines.append(f"burgers,10,2,{mu},opinf-reproj,{split},0.01,{reproj_diff},false,1e-9")
            lines.append(f"burgers,10,2,{mu},opinf-plain,{split},nan,nan,true,1e-3")
    return _write(tmp_path / "metrics.csv", METRICS_HEADER, lines)


def test_required_columns_match_the_recovery_condition():
    # p + sum_i C(nbar + i - 1, i) for Burgers, reaction2d and Chafee-Infante
    assert EXPECTED.required == 66
    assert Expected((), (), (), 10, 3, 2, 0, 0, 0.0).required == 287
    assert Expected((), (), (), 6, 3, 1, 0, 0, 0.0).required == 84


def test_right_outputs_pass(tmp_path):
    assert check_certify(_certify(tmp_path), EXPECTED) == []
    assert check_metrics(_metrics(tmp_path), EXPECTED) == []


def test_wrong_required_is_caught(tmp_path):
    problems = check_certify(_certify(tmp_path, required=65), EXPECTED)
    assert any("required 65" in problem for problem in problems)


def test_large_trajectory_difference_is_caught(tmp_path):
    problems = check_metrics(_metrics(tmp_path, reproj_diff="1e-3"), EXPECTED)
    assert len(problems) == 3 and all("traj_diff" in problem for problem in problems)


def test_missing_and_repeated_rows_are_caught(tmp_path):
    path = _metrics(tmp_path)
    lines = open(path).read().splitlines()
    _write(tmp_path / "metrics.csv", lines[0], lines[1:] + [lines[1]])
    assert any("repeats" in problem for problem in check_metrics(path, EXPECTED))
    _write(tmp_path / "metrics.csv", lines[0], lines[2:])
    assert any("lacks 1 rows" in problem for problem in check_metrics(path, EXPECTED))
