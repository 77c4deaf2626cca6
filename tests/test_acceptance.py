"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Criteria 6-8 execute the benchmark studies (full-scale Burgers,
desk-scale Chafee-Infante and diffusion-reaction) and take several minutes
each; everything else is fast.  The paper-scale diffusion-reaction study is
marked `paper` and runs only with ``pytest -m paper``.
"""

import time

import kron_oracles
import numpy as np
import pytest

from opinfer import cli, diagnostics, fom, opinf, rom, subspace


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def _random_reduced_setup(rng, trial):
    N = int(rng.integers(5, 13))
    degree = int(rng.integers(1, 4))
    n = int(rng.integers(1, 5))
    p = int(rng.integers(0, 3))
    K = int(rng.integers(10, 101))
    model = fom.make_random_polynomial(N, degree, input_dim=p, seed=10_000 + trial)
    basis = subspace.pod_basis(
        np.random.default_rng(20_000 + trial).normal(size=(N, N + 4)), n
    )
    return model, basis, K


def test_criterion_1_reprojected_equals_intrusive_trajectory():
    """Re-projected sampling reproduces the intrusive reduced trajectory."""
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        model, basis, K = _random_reduced_setup(rng, trial)
        n = basis.reduced_dim
        z0 = 0.5 * rng.normal(size=n)
        x0 = basis.matrix @ z0
        U = (
            fom.random_input_trajectory(K, model.input_dim, -0.5, 0.5, seed=trial)
            if model.input_dim
            else None
        )
        bar = opinf.reproject_sample(model, basis, x0, U, num_steps=K)
        reduced = rom.galerkin_project(model, basis)
        tilde = rom.reduced_simulate(reduced, basis.matrix.T @ x0, U, num_steps=K)
        assert not bar.diverged and not tilde.diverged
        gap = np.linalg.norm(bar.states - tilde.states)
        bound = 1e-10 * (1.0 + np.linalg.norm(tilde.states))
        assert gap <= bound, f"trial {trial}: gap {gap:.2e} > {bound:.2e}"
        worst = max(worst, gap / (1.0 + np.linalg.norm(tilde.states)))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _report(
        "criterion-1",
        f"50 random systems, worst normalized gap {worst:.2e} <= 1e-10, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_exact_operator_recovery():
    """Least squares on certified re-projected data returns the intrusive
    operators to 1e-6 relative."""
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst = 0.0
    conds = []
    scales = (0.4, 0.8, 1.3)
    for trial in range(50):
        model, basis, _ = _random_reduced_setup(rng, 500 + trial)
        n = basis.reduced_dim
        intrusive = rom.galerkin_project(model, basis)

        def sample_piece(piece):
            # short pieces from starts of varied scale keep the data matrix
            # well conditioned (monomial blocks decorrelate across scales)
            z0 = scales[piece % len(scales)] * rng.normal(size=n)
            x0 = basis.matrix @ z0
            U = (
                fom.random_input_trajectory(
                    4, model.input_dim, -0.5, 0.5, seed=3000 + 100 * trial + piece
                )
                if model.input_dim
                else None
            )
            bar = opinf.reproject_sample(model, basis, x0, U, num_steps=4)
            return bar.states, U

        pieces = [sample_piece(piece) for piece in range(14)]
        for top_up in range(6):
            learned, _, certificate = opinf.infer_operators(
                pieces, model.degree, "re-projected"
            )
            if certificate.satisfied and certificate.condition_number <= 1e8:
                break
            pieces += [sample_piece(14 + 10 * top_up + k) for k in range(10)]
        assert certificate.satisfied, f"trial {trial}: certificate not satisfied"
        assert certificate.condition_number <= 1e8, (
            f"trial {trial}: cond {certificate.condition_number:.2e} > 1e8"
        )
        conds.append(certificate.condition_number)
        rel = np.linalg.norm(learned.stacked() - intrusive.stacked()) / np.linalg.norm(
            intrusive.stacked()
        )
        assert rel <= 1e-6, f"trial {trial}: relative recovery error {rel:.2e}"
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _report(
        "criterion-2",
        f"50 recoveries, worst relative error {worst:.2e} <= 1e-6, "
        f"max cond {max(conds):.2e}, {elapsed:.1f}s",
    )


def _dense_kronecker_oracle(model, V):
    """Galerkin operators via zero-padding: V^T A_full (V x ... x V) Dup."""
    N = model.state_dim
    n = V.shape[1]
    eye = np.eye(N)
    oracle = []
    for i in range(1, model.degree + 1):
        A_full = np.zeros((N, N**i))
        for q, tup in enumerate(np.indices((N,) * i).reshape(i, -1).T):
            A_full[:, q] = model.multilinear(i, [eye[:, j] for j in tup])
        V_kron = V
        for _ in range(i - 1):
            V_kron = np.kron(V_kron, V)
        dup = kron_oracles.duplication_matrix(n, i).toarray()
        oracle.append(V.T @ A_full @ V_kron @ dup)
    return oracle


def test_criterion_3_galerkin_column_formula_vs_kronecker_oracle():
    """Column-formula projection equals the dense selection/duplication
    Kronecker oracle to 1e-12."""
    rng = np.random.default_rng(3)
    worst = 0.0
    cases = [(4, 2, 2), (6, 2, 3), (8, 3, 4), (5, 3, 3), (8, 1, 4), (7, 3, 2)]
    for seed, (N, degree, n) in enumerate(cases):
        model = fom.make_random_polynomial(N, degree, input_dim=1, seed=seed)
        V = subspace.pod_basis(rng.normal(size=(N, N + n)), n).matrix
        projected = rom.galerkin_project(model, subspace.Basis(V))
        oracle = _dense_kronecker_oracle(model, V)
        for A, A_oracle in zip(projected.operators, oracle):
            gap = np.abs(A - A_oracle).max()
            assert gap <= 1e-12, f"(N={N}, ell={degree}, n={n}): max gap {gap:.2e}"
            worst = max(worst, gap)
    _report("criterion-3", f"{len(cases)} systems, worst entry gap {worst:.2e} <= 1e-12")


def test_criterion_4_mori_zwanzig_identity():
    """Markovian + memory + initial terms reassemble the projected trajectory."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(20):
        N = int(rng.integers(6, 31))
        n = int(rng.integers(1, min(N, 11)))
        K = int(rng.integers(20, 201))
        A1 = rng.uniform(0.0, 1.0, (N, N))
        A1 *= 0.95 / np.abs(np.linalg.eigvals(A1)).max()
        basis = subspace.pod_basis(
            np.random.default_rng(40_000 + trial).normal(size=(N, N + n)), n
        )
        x0 = rng.normal(size=N)
        mz = diagnostics.mori_zwanzig_decompose(A1, basis, x0, K)
        model = fom.FullOrderModel(
            state_dim=N, input_dim=0, degree=1, forms=(lambda w, A=A1: A @ w,)
        )
        full = fom.simulate(model, x0, num_steps=K)
        projected = basis.matrix.T @ full.states[:, 1:]
        gap = np.linalg.norm(mz.total() - projected)
        bound = 1e-11 * (1.0 + np.linalg.norm(projected))
        assert gap <= bound, f"trial {trial}: gap {gap:.2e}"
        worst = max(worst, gap / (1.0 + np.linalg.norm(projected)))
        assert np.all(mz.memory[:, 0] == 0.0)
        # x0 constructed inside the subspace kills the initial-condition term
        mz_span = diagnostics.mori_zwanzig_decompose(
            A1, basis, basis.matrix @ (basis.matrix.T @ x0), K
        )
        assert np.abs(mz_span.initial).max() <= 1e-12
    _report("criterion-4", f"20 linear systems, worst normalized gap {worst:.2e} <= 1e-11")


def test_criterion_5_toy_study_reproduction():
    """Toy study: positive closure error, re-projection recovery at n=2,
    plain fit off by >= 1e-2 or diverging, conditioning non-decreasing in n."""
    start = time.perf_counter()
    config = cli.default_config("toy")
    config.seed = 0
    report = cli.run_toy(config)
    elapsed = time.perf_counter() - start

    closure = np.array([row[1] for row in report.extras["toy_closure.csv"][1]])
    assert np.linalg.norm(closure) > 0.0, "closure error not strictly positive"

    diff = {(n, method): value for n, method, value in report.extras["toy_diff.csv"][1]}
    assert diff[(2, "opinf-reproj")] <= 1e-8
    plain = diff[(2, "opinf-plain")]
    assert np.isnan(plain) or plain >= 1e-2

    cond_rows = report.extras["toy_cond.csv"][1]
    K = config.num_steps
    cond_at_K = {n: c for n, k, c in cond_rows if k == K}
    assert cond_at_K[2] <= cond_at_K[4] <= cond_at_K[6], "conditioning not monotone"

    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    _report(
        "criterion-5",
        f"closure ||.||_F {np.linalg.norm(closure):.3f} > 0, reproj diff "
        f"{diff[(2, 'opinf-reproj')]:.2e} <= 1e-8, plain diff {plain:.2e}, "
        f"cond {cond_at_K[2]:.1e} <= {cond_at_K[4]:.1e} <= {cond_at_K[6]:.1e}, "
        f"{elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def burgers_report():
    config = cli.default_config("burgers", "paper")
    config.seed = 0
    start = time.perf_counter()
    report = cli.run_study(config)
    report.wall_clock = time.perf_counter() - start
    return report


def test_criterion_6_burgers_full_scale(burgers_report):
    """Full-scale Burgers: learned-vs-intrusive trajectory difference at most
    1e-8 on test parameters for all n <= 10; intrusive test error at n = 10
    inside [1e-3, 1e-1]; under 10 minutes single-threaded."""
    report = burgers_report
    assert all(row["satisfied"] for row in report.certificate_rows)

    reproj_test = [
        row
        for row in report.metric_rows
        if row["split"] == "test" and row["method"] == "opinf-reproj"
    ]
    assert len(reproj_test) == 7 * 10
    assert all(not row["diverged"] for row in reproj_test)
    worst = max(row["traj_diff"] for row in reproj_test)
    assert worst <= 1e-8, f"worst test trajectory difference {worst:.2e}"

    intrusive_n10 = [
        row["avg_rel_error"]
        for row in report.metric_rows
        if row["split"] == "test" and row["method"] == "intrusive" and row["n"] == 10
    ]
    mean_error = float(np.mean(intrusive_n10))
    assert 1e-3 <= mean_error <= 1e-1, f"intrusive test error {mean_error:.2e}"

    assert report.wall_clock < 600.0, f"runtime {report.wall_clock:.0f}s exceeds 10min"
    _report(
        "criterion-6",
        f"worst reproj-vs-intrusive test difference {worst:.2e} <= 1e-8, "
        f"intrusive test error at n=10 {mean_error:.2e} in [1e-3, 1e-1], "
        f"{report.wall_clock:.0f}s < 600s",
    )


def test_criterion_7_chafee_desk_scale():
    """Desk-scale Chafee-Infante: re-projection matches the intrusive model to
    1e-6 for n <= 6 while the plain fit is >= 2 orders worse or diverges."""
    config = cli.default_config("chafee", "desk")
    config.seed = 0
    report = cli.run_study(config)

    by_key = {
        (row["n"], row["method"], row["split"]): row for row in report.metric_rows
    }
    worst = 0.0
    plain_summary = []
    for split in ("train", "test"):
        for n in range(1, 7):
            reproj = by_key[(n, "opinf-reproj", split)]
            assert not reproj["diverged"]
            assert reproj["traj_diff"] <= 1e-6, (
                f"n={n} {split}: reproj difference {reproj['traj_diff']:.2e}"
            )
            worst = max(worst, reproj["traj_diff"])
            plain = by_key[(n, "opinf-plain", split)]
            ok = plain["diverged"] or plain["traj_diff"] >= 100.0 * reproj["traj_diff"]
            assert ok, (
                f"n={n} {split}: plain fit not >= 2 orders worse "
                f"({plain['traj_diff']:.2e} vs {reproj['traj_diff']:.2e})"
            )
            plain_summary.append("div" if plain["diverged"] else f"{plain['traj_diff']:.0e}")
    _report(
        "criterion-7",
        f"worst reproj difference {worst:.2e} <= 1e-6; plain per (split, n): "
        + ",".join(plain_summary),
    )


def test_criterion_8_reaction2d_desk_scale():
    """Desk-scale diffusion-reaction; see `_check_reaction2d`."""
    _check_reaction2d("desk")


@pytest.mark.paper
def test_criterion_8_reaction2d_paper_scale():
    """Criterion 8's assertions on the paper-scale study (N = 4096), which
    takes minutes: deselected by default, run with ``pytest -m paper``."""
    _check_reaction2d("paper")


def _check_reaction2d(scale):
    """Diffusion-reaction at `scale`: certificates satisfied (rank decided on
    the row-equilibrated data matrix), re-projection matches the intrusive
    model to 1e-6 for n <= 10, and for each n > 2 the plain fits diverge at
    some parameter or their parameter-averaged error exceeds the intrusive
    one.

    The plain-fit clause is about the aggregate over the parameters, as the
    paper's error curves are (averaged over mu, unstable models shown as
    missing values); it is not a claim about every (mu, n) cell, since a
    least-squares fit to projected data can absorb part of the closure error
    at a single parameter."""
    config = cli.default_config("reaction2d", scale)
    config.seed = 0
    report = cli.run_study(config)

    assert len(report.certificate_rows) == 10
    assert all(row["satisfied"] for row in report.certificate_rows)

    train = {
        (row["n"], row["mu"], row["method"]): row
        for row in report.metric_rows
        if row["split"] == "train"
    }
    params = sorted({mu for (_, mu, _) in train})
    worst = 0.0
    for mu in params:
        for n in range(1, 11):
            reproj = train[(n, mu, "opinf-reproj")]
            assert not reproj["diverged"]
            assert reproj["traj_diff"] <= 1e-6, (
                f"n={n}, mu={mu}: reproj difference {reproj['traj_diff']:.2e}"
            )
            worst = max(worst, reproj["traj_diff"])
    n_bad_plain = 0
    plain_summary = []
    for n in range(3, 11):
        plain = [train[(n, mu, "opinf-plain")] for mu in params]
        diverged = sum(int(row["diverged"]) for row in plain)
        n_bad_plain += diverged
        if diverged:
            plain_summary.append("div")
            continue
        plain_mean = np.mean([row["avg_rel_error"] for row in plain])
        intrusive_mean = np.mean([train[(n, mu, "intrusive")]["avg_rel_error"] for mu in params])
        assert plain_mean > intrusive_mean, (
            f"n={n}: plain fits neither diverged nor worse on average "
            f"({plain_mean:.3e} vs intrusive {intrusive_mean:.3e})"
        )
        plain_summary.append(f"{plain_mean / intrusive_mean:.3f}")
    _report(
        f"criterion-8 ({scale})",
        f"10 certificates satisfied; worst reproj difference {worst:.2e} <= 1e-6; "
        f"plain diverged in {n_bad_plain} of {8 * len(params)} cells with n > 2; "
        "plain/intrusive mean error per n > 2: " + ",".join(plain_summary),
    )


def test_criterion_9_pod_optimality():
    """POD reconstruction error equals the tail singular-value energy."""
    rng = np.random.default_rng(9)
    worst_energy = 0.0
    worst_gram = 0.0
    for trial in range(10):
        S = rng.normal(size=(20, 50))
        sigma = np.linalg.svd(S, compute_uv=False)
        for n in (1, 5, 12):
            basis = subspace.pod_basis(S, n)
            V = basis.matrix
            gram = np.abs(V.T @ V - np.eye(n)).max()
            assert gram <= 1e-12
            err_sq = np.linalg.norm(S - V @ (V.T @ S)) ** 2
            tail = float(np.sum(sigma[n:] ** 2))
            rel = abs(err_sq - tail) / tail
            assert rel <= 1e-10, f"trial {trial}, n={n}: energy mismatch {rel:.2e}"
            worst_energy = max(worst_energy, rel)
            worst_gram = max(worst_gram, gram)
    _report(
        "criterion-9",
        f"Eckart-Young energy match {worst_energy:.2e} <= 1e-10, "
        f"orthonormality defect {worst_gram:.2e} <= 1e-12",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    """Re-running any runner with an identical config and seed reproduces
    every CSV byte for byte (checked on the toy study and shrunken parametric
    studies; all runners share the same seeded-input and formatting path)."""
    compared = 0

    def rerun_and_compare(tag, runner, config):
        nonlocal compared
        outputs = []
        for attempt in ("a", "b"):
            config.out_dir = str(tmp_path / f"{tag}-{attempt}")
            runner(config).write(config.out_dir)
            outputs.append(config.out_dir)
        names = sorted(p.name for p in (tmp_path / f"{tag}-a").iterdir())
        assert names, f"{tag} wrote no files"
        for name in names:
            a = (tmp_path / f"{tag}-a" / name).read_bytes()
            b = (tmp_path / f"{tag}-b" / name).read_bytes()
            assert a == b, f"{tag}/{name} differs between reruns"
            compared += 1

    toy = cli.default_config("toy")
    toy.seed = 123
    rerun_and_compare("toy", cli.run_toy, toy)

    burgers = cli.default_config("burgers")
    burgers.state_dim = 24
    burgers.num_steps = 250
    burgers.dt = 2e-4
    burgers.param_count = 3
    burgers.num_inputs = 2
    burgers.nbar = 3
    burgers.truncation_dims = [1, 2, 3]
    burgers.num_test_params = 3
    burgers.seed = 123
    rerun_and_compare("burgers", cli.run_study, burgers)

    reaction = cli.default_config("reaction2d")
    reaction.grid_points_per_dim = 8
    reaction.num_steps = 300
    reaction.param_count = 2
    reaction.num_inputs = 3
    reaction.nbar = 3
    reaction.truncation_dims = [1, 2, 3]
    reaction.reproj_horizon = 100
    reaction.snapshot_stride = 1
    reaction.num_test_params = 2
    reaction.seed = 123
    rerun_and_compare("reaction2d", cli.run_study, reaction)

    _report("criterion-10", f"{compared} CSV files byte-identical across reruns")
