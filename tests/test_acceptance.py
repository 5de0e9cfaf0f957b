"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines alongside pytest's own pass/fail report.
"""

import numpy as np
from scipy import stats

from se3diffuse import backbone, cli, igso3, process, schedules, so3, toy
from se3diffuse.process import FrameSet

TS = schedules.TranslationSchedule()
RS = schedules.RotationSchedule()
GEOM = backbone.load_ideal_geometry()


def report(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_c01_igso3_normalization():
    grid = np.linspace(0.0, np.pi, 10_000)
    weight = (1.0 - np.cos(grid)) / np.pi
    worst = 0.0
    for t in (0.05, 0.1, 0.5, 1.5, 4.0):
        f = np.clip(igso3.f_igso3(grid, t), 0.0, None)
        worst = max(worst, abs(np.trapezoid(f * weight, grid) - 1.0))
    report(1, "igso3-normalization", worst < 1e-4, f"max |integral - 1| = {worst:.2e}")


def test_c02_score_gradient_consistency():
    rng = np.random.default_rng(2)
    worst = 0.0
    times = [0.1, 0.5, 1.0]
    for i in range(50):
        t = times[i % 3]
        table = igso3.build_table(t)
        r0 = so3.sample_uniform_so3(rng)
        rt = igso3.sample_igso3(r0, table, rng)
        score = rt @ so3.hat(igso3.conditional_score(r0, rt, t))
        fd = igso3.riemannian_gradient_fd(
            lambda r: np.log(igso3.igso3_density(r0, r, t)), rt, h=1e-4
        )
        rel = np.abs(score - fd).max() / max(np.linalg.norm(so3.vee(rt.T @ fd)), 1.0)
        worst = max(worst, rel)
    report(2, "score-gradient-consistency", worst < 1e-4, f"max rel err = {worst:.2e}")


def test_c03_exp_log_roundtrip():
    rng = np.random.default_rng(3)
    axes = rng.standard_normal((10_000, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    norms = rng.uniform(1e-12, np.pi - 1e-3, size=(10_000, 1))
    v = axes * norms
    back = so3.vee(so3.log_so3(so3.exp_so3(so3.hat(v))))
    worst = np.abs(back - v).max()
    report(3, "exp-log-roundtrip", worst < 1e-9, f"max reconstruction err = {worst:.2e}")


def test_c04_flat_limit():
    grid = np.linspace(0.0, np.pi, 4000)
    sup = np.abs(igso3.f_igso3(grid, 16.0) - 1.0).max()
    rng = np.random.default_rng(4)
    table = igso3.build_table(50.0)
    eye = np.broadcast_to(np.eye(3), (100_000, 3, 3))
    a = so3.rotation_angle(igso3.sample_igso3(eye, table, rng))
    b = so3.rotation_angle(so3.sample_uniform_so3(rng, 100_000))
    ks = stats.ks_2samp(a, b).statistic
    report(
        4,
        "flat-limit",
        sup < 1e-3 and ks < 0.02,
        f"sup|f(w,16)-1| = {sup:.2e}, KS(t=50 vs uniform) = {ks:.4f}",
    )


def test_c05_toy_forward_reverse_agreement():
    rng = np.random.default_rng(5)
    target = toy.random_target(3, seed=0)
    cfg = toy.ToyRunConfig(n_paths=5000, final_time=4.0, n_steps=200)
    fwd = toy.run_forward(target, cfg, rng)
    rev = toy.run_reverse(target, cfg, rng)
    times = cfg.times()
    # Recorded comparison times: the grid points nearest 1, 2, 3 plus the
    # recorded grid's terminal point t = 4.
    check_at = [float(times[np.argmin(np.abs(times - u))]) for u in (1.0, 2.0, 3.0)]
    check_at.append(float(times[-1]))
    ks_values = {}
    for t in check_at:
        ks_values[t] = stats.ks_2samp(
            toy.angle_to_nearest_atom(target, fwd[t]),
            toy.angle_to_nearest_atom(target, rev[t]),
        ).statistic
    worst = max(ks_values.values())
    detail = ", ".join(f"t={t:.2f}: {v:.4f}" for t, v in ks_values.items())
    report(5, "toy-marginal-agreement", worst < 0.05, detail)


def test_c06_heat_kernel_semigroup():
    rng = np.random.default_rng(6)
    eye = np.broadcast_to(np.eye(3), (100_000, 3, 3))
    first = igso3.sample_igso3(eye, igso3.build_table(0.3), rng)
    chained = igso3.sample_igso3(first, igso3.build_table(0.5), rng)
    single = igso3.sample_igso3(eye, igso3.build_table(0.8), rng)
    ks = stats.ks_2samp(
        so3.rotation_angle(chained), so3.rotation_angle(single)
    ).statistic
    report(6, "heat-kernel-semigroup", ks < 0.02, f"KS = {ks:.4f}")


def test_c07_translation_vp_sde():
    rng = np.random.default_rng(7)
    n_paths, n_steps = 100_000, 10_000
    x0 = 1.5
    x = np.full(n_paths, x0)
    z = np.empty(n_paths)
    dt = 1.0 / n_steps
    checkpoints = {0.25: None, 0.5: None, 1.0: None}
    for k in range(n_steps):
        s = k * dt
        b = float(schedules.beta(s, TS))
        # In place, with the operations of x * (1 - b dt / 2) + sqrt(b dt) z.
        rng.standard_normal(out=z)
        z *= np.sqrt(b * dt)
        x *= 1.0 - 0.5 * b * dt
        x += z
        s_next = (k + 1) * dt
        for cp in checkpoints:
            if checkpoints[cp] is None and s_next >= cp - 1e-12:
                checkpoints[cp] = x.copy()
    details = []
    ok = True
    for cp, sample in checkpoints.items():
        marg = schedules.trans_marginal(np.array([x0]), cp, TS)
        se_mean = np.sqrt(marg.variance / n_paths)
        se_var = marg.variance * np.sqrt(2.0 / (n_paths - 1))
        dm = abs(sample.mean() - marg.mean[0])
        dv = abs(sample.var() - marg.variance)
        ok = ok and dm < 3 * se_mean and dv < 3 * se_var
        details.append(f"s={cp}: dmean={dm / se_mean:.2f}se, dvar={dv / se_var:.2f}se")
    report(7, "translation-vp-sde", ok, "; ".join(details))


def test_c08_schedule_derivative_identities():
    s = np.linspace(0.01, 0.99, 100)
    h = 1e-4
    fd_beta = (schedules.G_x(s + h, TS) - schedules.G_x(s - h, TS)) / (2 * h)
    err_beta = np.abs(fd_beta - schedules.beta(s, TS)).max()
    fd_var = (
        schedules.rot_variance(s + h, RS) - schedules.rot_variance(s - h, RS)
    ) / (2 * h)
    err_gr = np.abs(schedules.g_r(s, RS) ** 2 - fd_var).max()
    endpoints = (
        schedules.beta(0.0, TS) == 0.1
        and schedules.beta(1.0, TS) == 20.0
        and schedules.sigma_r(0.0, RS) == 0.1
        and schedules.sigma_r(1.0, RS) == 1.5
    )
    report(
        8,
        "schedule-derivatives",
        err_beta < 1e-6 and err_gr < 1e-6 and endpoints,
        f"|G' - beta| = {err_beta:.2e}, |g_r^2 - (sigma^2)'| = {err_gr:.2e}, "
        f"endpoints exact = {endpoints}",
    )


def test_c09_dsm_trivial_prediction():
    rng = np.random.default_rng(9)
    details = []
    ok = True
    for t in (0.1, 0.5, 1.0):
        var = float(schedules.rot_variance(t, RS))
        lam = 1.0 / igso3.expected_score_norm_sq(var)
        table = igso3.build_table(var)
        angles = table.sample_angles(rng, 100_000)
        # Trivial denoiser predicts the noisy rotation itself: its score
        # prediction is zero, so the weighted loss is lambda E|score|^2.
        loss = lam * np.mean((table.interp_df(angles) / table.interp_f(angles)) ** 2)
        ok = ok and abs(loss - 1.0) < 0.03
        details.append(f"t={t}: {loss:.4f}")
    report(9, "dsm-trivial-prediction", ok, ", ".join(details))


def test_c10_centered_process_invariance():
    rng = np.random.default_rng(10)
    n, draws, t = 8, 100_000, 0.5
    base = process.center(
        FrameSet(so3.sample_uniform_so3(rng, n), 0.5 * rng.standard_normal((n, 3)))
    )
    g = so3.sample_uniform_so3(rng)
    rotated = FrameSet(g @ base.rotations, base.translations @ g.T, centered=True)

    def forward_batch(fs, rng):
        table = igso3.build_table(float(schedules.rot_variance(t, RS)))
        rot = igso3.sample_igso3(
            np.broadcast_to(fs.rotations, (draws, n, 3, 3)), table, rng
        )
        marg = schedules.trans_marginal(fs.translations, t, TS)
        trans = marg.mean + np.sqrt(marg.variance) * rng.standard_normal((draws, n, 3))
        trans = trans - trans.mean(axis=1, keepdims=True)
        return rot, trans

    rot_a, trans_a = forward_batch(rotated, rng)  # forward of transformed input
    rot_b, trans_b = forward_batch(base, rng)
    rot_b = g @ rot_b  # transform of forward output
    trans_b = trans_b @ g.T

    angles_a = so3.rotation_angle(rot_a).ravel()
    angles_b = so3.rotation_angle(rot_b).ravel()
    ks_angle = stats.ks_2samp(angles_a[:200_000], angles_b[:200_000]).statistic

    iu = np.triu_indices(n, k=1)
    dist_a = np.linalg.norm(
        trans_a[:, iu[0]] - trans_a[:, iu[1]], axis=-1
    ).ravel()
    dist_b = np.linalg.norm(
        trans_b[:, iu[0]] - trans_b[:, iu[1]], axis=-1
    ).ravel()
    ks_dist = stats.ks_2samp(dist_a[:200_000], dist_b[:200_000]).statistic
    report(
        10,
        "centered-process-invariance",
        ks_angle < 0.02 and ks_dist < 0.02,
        f"KS angle = {ks_angle:.4f}, KS pairwise dist = {ks_dist:.4f}",
    )


def test_c11_backbone_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    frames = FrameSet(so3.sample_uniform_so3(rng, 500), rng.standard_normal((500, 3)))
    angles = rng.uniform(-np.pi, np.pi, 500)
    psi = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    back = backbone.atom2frame(backbone.frameset_to_atoms(frames, psi, GEOM))
    worst = max(
        np.abs(back.rotations - frames.rotations).max(),
        np.abs(back.translations - frames.translations).max(),
    )
    frames = FrameSet(so3.sample_uniform_so3(rng, 6), rng.standard_normal((6, 3)))
    atoms = backbone.frameset_to_atoms(frames, geom=GEOM)
    losses_zero = (backbone.l_bb(atoms, atoms) == 0.0
                   and backbone.l_2d(atoms, atoms) == 0.0)
    pdb_path = tmp_path / "roundtrip.pdb"
    backbone.write_pdb(str(pdb_path), atoms)
    parsed = backbone.atom2frame(backbone.read_pdb(str(pdb_path)))
    pdb_worst = np.abs(parsed.rotations - frames.rotations).max()
    report(
        11,
        "backbone-roundtrip",
        worst < 1e-10 and losses_zero and pdb_worst < 1e-3,
        f"frame err = {worst:.2e}, losses zero = {losses_zero}, "
        f"pdb rotation err = {pdb_worst:.2e}",
    )


def test_c12_determinism(tmp_path):
    rng = np.random.default_rng(12)
    init = process.center(
        FrameSet(so3.sample_uniform_so3(rng, 5), rng.standard_normal((5, 3)))
    )
    target = process.center(
        FrameSet(so3.sample_uniform_so3(rng, 5), rng.standard_normal((5, 3)))
    )
    score = process.fixed_target_score(target, TS, RS)
    sim = process.SimConfig(n_steps=40, eps=0.01, noise_scale=0.0)
    walk_ok = True
    ref = process.reverse_walk(init, score, TS, RS, sim, np.random.default_rng(1))
    other = process.reverse_walk(init, score, TS, RS, sim, np.random.default_rng(2))
    for (_, a), (_, b) in zip(ref, other):
        walk_ok = walk_ok and np.array_equal(a.rotations, b.rotations)
        walk_ok = walk_ok and np.array_equal(a.translations, b.translations)

    commands = [
        (["schedule", "--points", "21", "--out", "OUT/s.csv"], ["OUT/s.csv"]),
        (
            ["igso3", "eval", "--t", "0.5", "--grid", "200", "--out", "OUT/e.csv"],
            ["OUT/e.csv"],
        ),
        (
            ["toy", "forward", "--paths", "30", "--T", "1.0", "--steps", "5",
             "--seed", "3", "--out-dir", "OUT/toy"],
            ["OUT/toy/t_0000.csv", "OUT/toy/t_0004.csv"],
        ),
        (
            ["sample-backbones", "--n-residues", "4", "--n-steps", "15", "--zeta",
             "0", "--seed", "3", "--out", "OUT/bb"],
            ["OUT/bb.pdb"],
        ),
    ]
    cli_ok = True
    for args, outputs in commands:
        blobs = []
        for rep in ("r1", "r2"):
            root = tmp_path / rep
            root.mkdir(exist_ok=True)
            assert cli.main([a.replace("OUT", str(root)) for a in args]) == 0
            blobs.append(
                [open(o.replace("OUT", str(root)), "rb").read() for o in outputs]
            )
        cli_ok = cli_ok and blobs[0] == blobs[1]
    report(
        12,
        "determinism",
        walk_ok and cli_ok,
        f"zeta=0 walk seed-independent = {walk_ok}, CLI byte-stable = {cli_ok}",
    )
