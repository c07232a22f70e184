"""Checkpoint/restart: atomic archives, fingerprinting, exact round-trips."""

import os
import time
import zipfile

import numpy as np
import pytest

from repro.core.materials import acoustic, elastic
from repro.core.resilience import ResilientRunner
from repro.core.solver import CoupledSolver, PointSource, ocean_surface_gravity_tagger
from repro.io.checkpoint import (
    CheckpointError,
    CheckpointManager,
    capture_state,
    latest_checkpoint,
    load_checkpoint,
    restore_checkpoint,
    restore_state,
    save_checkpoint,
    fingerprint,
)
from repro.mesh.generators import layered_ocean_mesh

# the two-material faulted LTS rig (``sort=True``: renumbered cluster-major)
from tests.test_exec_equivalence import build_lts_fault_gravity


def build_gts(order=2):
    """Small coupled Earth-ocean solver with a gravity surface and a source."""
    crust = elastic(rho=2700.0, cp=4000.0, cs=2300.0)
    ocean = acoustic(rho=1000.0, cp=1500.0)
    xs = np.linspace(0.0, 2000.0, 4)
    mesh = layered_ocean_mesh(
        xs, xs,
        zs_earth=np.linspace(-1500.0, -500.0, 3),
        zs_ocean=np.linspace(-500.0, 0.0, 2),
        earth=crust, ocean=ocean,
    )
    mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
    solver = CoupledSolver(mesh, order=order)

    def ricker(t):
        a = (np.pi * 2.0 * (t - 0.3)) ** 2
        return (1.0 - 2.0 * a) * np.exp(-a)

    solver.add_source(
        PointSource([1000.0, 1000.0, -900.0], ricker, moment=[5e12] * 3 + [0, 0, 0])
    )
    return solver


class TestArchive:
    def test_save_is_atomic_and_leaves_no_temp_files(self, tmp_path):
        solver = build_gts()
        solver.run(0.05)
        path = save_checkpoint(str(tmp_path / "state"), solver)
        assert path.endswith(".npz") and os.path.exists(path)
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []

    def test_roundtrip_restores_every_field(self, tmp_path):
        solver = build_gts()
        solver.run(0.1)
        path = save_checkpoint(str(tmp_path / "s.npz"), solver,
                               metadata={"note": "mid-run"})
        fresh = build_gts()
        meta = restore_checkpoint(path, fresh)
        assert meta["note"] == "mid-run"
        assert fresh.t == solver.t
        assert np.array_equal(fresh.Q, solver.Q)
        assert np.array_equal(fresh.gravity.eta, solver.gravity.eta)

    def test_fingerprint_rejects_different_order(self, tmp_path):
        solver = build_gts(order=2)
        path = save_checkpoint(str(tmp_path / "s.npz"), solver)
        other = CoupledSolver(solver.mesh, order=1)
        with pytest.raises(CheckpointError, match="different problem"):
            restore_checkpoint(path, other)

    def test_fingerprint_strict_false_still_checks_shapes(self, tmp_path):
        solver = build_gts(order=2)
        path = save_checkpoint(str(tmp_path / "s.npz"), solver)
        other = CoupledSolver(solver.mesh, order=1)
        with pytest.raises(CheckpointError, match="shape"):
            restore_checkpoint(path, other, strict=False)

    def test_fingerprint_differs_between_problems(self):
        a = build_gts(order=2)
        b = build_gts(order=1)
        assert fingerprint(a) != fingerprint(b)
        assert fingerprint(a) == fingerprint(build_gts(order=2))

    def test_corrupt_archive_is_rejected(self, tmp_path):
        bad = tmp_path / "ckpt_0000000001.npz"
        bad.write_bytes(b"not an npz archive")
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(bad))

    def test_fault_state_requires_fault_solver(self, tmp_path):
        solver, fault, lts = build_lts_fault_gravity()
        path = save_checkpoint(str(tmp_path / "f.npz"), solver, lts)
        plain = build_gts()
        with pytest.raises(CheckpointError):
            restore_state(plain, load_checkpoint(path)["state"])


def member_compression(path):
    """``{member name: zip compression method}`` of an archive."""
    with zipfile.ZipFile(path) as z:
        return {info.filename: info.compress_type for info in z.infolist()}


class TestStoredFormat:
    """Archives are written stored (a developed state is noise to zlib and
    deflate was 21x the write, DESIGN.md "Checkpoint format"); deflated
    archives of earlier builds keep loading under the same version."""

    def test_every_member_is_stored(self, tmp_path):
        solver, _, lts = build_lts_fault_gravity()
        lts.run(0.05)
        path = save_checkpoint(str(tmp_path / "s.npz"), solver, lts,
                               metadata={"note": "x"})
        kinds = member_compression(path)
        assert {"Q.npy", "fault_slip.npy", "gravity_eta.npy",
                "lts_updates.npy", "meta_vals.npy"} <= set(kinds)
        assert set(kinds.values()) == {zipfile.ZIP_STORED}

    def test_legacy_deflated_archive_restores_and_resumes_bitwise(self, tmp_path):
        """Forward compatibility: what ``np.savez_compressed`` wrote from
        the same keys is restored bit for bit, and the run resumed from
        it ends where the uninterrupted run ends."""
        t_end = 0.4
        baseline = build_gts()
        ResilientRunner(baseline, checkpoint_every=0.2, verbose=False).run(t_end)

        victim = build_gts()
        runner = ResilientRunner(victim, checkpoint_every=0.2,
                                 checkpoint_dir=str(tmp_path), verbose=False)
        runner.run(0.2)
        path = runner.manager.latest()
        with np.load(path, allow_pickle=False) as d:
            members = {k: d[k] for k in d.files}
        np.savez_compressed(path, **members)
        assert set(member_compression(path).values()) == {zipfile.ZIP_DEFLATED}
        assert load_checkpoint(path)["version"] == 1

        resumed = build_gts()
        runner = ResilientRunner(resumed, checkpoint_every=0.2,
                                 checkpoint_dir=str(tmp_path), verbose=False)
        runner.resume()
        assert resumed.t == victim.t
        assert np.array_equal(resumed.Q, victim.Q)
        assert np.array_equal(resumed.gravity.eta, victim.gravity.eta)
        runner.run(t_end)
        assert resumed.t == baseline.t
        assert np.array_equal(resumed.Q, baseline.Q)
        assert np.array_equal(resumed.gravity.eta, baseline.gravity.eta)

    def test_handed_state_is_what_lands_on_disk(self, tmp_path):
        solver = build_gts()
        solver.run(0.05)
        state = capture_state(solver)
        solver.run(0.1)  # the live solver has moved on
        mgr = CheckpointManager(str(tmp_path), solver)
        data = load_checkpoint(mgr.save(7, state=state))
        assert sorted(data["state"]) == sorted(state)
        for key, arr in state.items():
            assert np.array_equal(data["state"][key], arr), key
        assert float(data["metadata"]["t"]) == float(state["t"]) != solver.t
        assert "version" not in state and "fingerprint" not in state

    def test_write_costs_less_than_a_step(self, tmp_path):
        """The budget where the cost is: one checkpoint of a
        Scenario-A-sized state costs less than one solver step (deflate
        made it 3.6 steps).  Random ``Q``: a developed wavefield is
        incompressible, a quiescent one would flatter any compressor."""
        from repro.ensemble.spec import get_builder

        solver = get_builder("scenario_a")({}, 0).solver
        solver.Q = np.random.default_rng(0).normal(size=solver.Q.shape)
        path = str(tmp_path / "budget.npz")

        def best_of(fn, n=3):
            times = []
            for _ in range(n):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        solver.step()  # first touch of every buffer stays out of the timing
        per_step = best_of(solver.step)
        per_save = best_of(lambda: save_checkpoint(path, solver))
        assert per_save < per_step, (
            f"a checkpoint costs {per_save / per_step:.2f} solver steps "
            f"({per_save * 1e3:.1f} ms vs {per_step * 1e3:.1f} ms)"
        )


class TestManager:
    def test_rotation_keeps_newest(self, tmp_path):
        solver = build_gts()
        mgr = CheckpointManager(str(tmp_path), solver, keep=2)
        for step in (10, 20, 30):
            mgr.save(step)
        names = sorted(os.listdir(tmp_path))
        assert names == ["ckpt_0000000020.npz", "ckpt_0000000030.npz"]
        assert mgr.latest().endswith("ckpt_0000000030.npz")

    def test_latest_checkpoint_empty_dir(self, tmp_path):
        assert latest_checkpoint(str(tmp_path)) is None
        assert latest_checkpoint(str(tmp_path / "missing")) is None


class TestRoundTripGTS:
    def test_interrupted_run_matches_uninterrupted_bitwise(self, tmp_path):
        t_end = 0.6
        baseline = build_gts()
        ResilientRunner(baseline, checkpoint_every=0.2, verbose=False).run(t_end)

        # "crash" after 0.4 s of a checkpointed run...
        victim = build_gts()
        ResilientRunner(
            victim, checkpoint_every=0.2, checkpoint_dir=str(tmp_path),
            verbose=False,
        ).run(0.4)

        # ...then rebuild from scratch and resume from the latest checkpoint
        resumed = build_gts()
        runner = ResilientRunner(
            resumed, checkpoint_every=0.2, checkpoint_dir=str(tmp_path),
            verbose=False,
        )
        runner.resume()
        assert resumed.t == pytest.approx(0.4)
        runner.run(t_end)

        assert resumed.t == baseline.t
        assert np.array_equal(resumed.Q, baseline.Q)
        assert np.array_equal(resumed.gravity.eta, baseline.gravity.eta)


class TestRoundTripLTS:
    def test_interrupted_lts_fault_gravity_matches_bitwise(self, tmp_path):
        t_end = 0.3
        sA, fA, ltsA = build_lts_fault_gravity()
        ResilientRunner(sA, lts=ltsA, checkpoint_every=0.1, verbose=False).run(t_end)
        assert fA.slip.max() > 0  # the fault actually ruptures in this window

        sB, fB, ltsB = build_lts_fault_gravity()
        ResilientRunner(
            sB, lts=ltsB, checkpoint_every=0.1, checkpoint_dir=str(tmp_path),
            verbose=False,
        ).run(0.2)

        sC, fC, ltsC = build_lts_fault_gravity()
        runner = ResilientRunner(
            sC, lts=ltsC, checkpoint_every=0.1, checkpoint_dir=str(tmp_path),
            verbose=False,
        )
        runner.resume()
        runner.run(t_end)

        assert np.array_equal(sA.Q, sC.Q)
        assert np.array_equal(sA.gravity.eta, sC.gravity.eta)
        for name in fA.STATE_FIELDS:
            assert np.array_equal(getattr(fA, name), getattr(fC, name)), name


class TestElementOrder:
    """Checkpoints key on the final element numbering."""

    @pytest.mark.parametrize("use_lts", [False, True], ids=["gts", "lts"])
    def test_unsorted_checkpoint_refuses_sorted_mesh(self, tmp_path, use_lts):
        """Same shapes, permuted rows: only the fingerprint can tell, and
        it must — loading would silently scramble the wavefield."""
        solver, _, lts = build_lts_fault_gravity()
        (lts.run if use_lts else solver.run)(0.05)
        path = save_checkpoint(str(tmp_path / "unsorted.npz"), solver,
                               lts if use_lts else None)
        other, _, other_lts = build_lts_fault_gravity(sort=True)
        assert other.Q.shape == solver.Q.shape
        assert all(isinstance(r, slice) for r in other_lts.idx)
        assert fingerprint(other) != fingerprint(solver)
        with pytest.raises(CheckpointError, match="different problem"):
            restore_checkpoint(path, other, other_lts if use_lts else None)
        assert other.t == 0.0 and not other.Q.any()  # nothing was loaded

    def test_sorted_lts_resume_is_bitwise(self, tmp_path):
        t_end = 0.3
        sA, fA, ltsA = build_lts_fault_gravity(sort=True)
        ResilientRunner(sA, lts=ltsA, checkpoint_every=0.1, verbose=False).run(t_end)
        assert fA.slip.max() > 0

        sB, _, ltsB = build_lts_fault_gravity(sort=True)
        ResilientRunner(
            sB, lts=ltsB, checkpoint_every=0.1, checkpoint_dir=str(tmp_path),
            verbose=False,
        ).run(0.2)

        # the rebuilt mesh sorts to the same numbering: the fingerprint
        # matches and the resumed run replays the same slices
        sC, fC, ltsC = build_lts_fault_gravity(sort=True)
        runner = ResilientRunner(
            sC, lts=ltsC, checkpoint_every=0.1, checkpoint_dir=str(tmp_path),
            verbose=False,
        )
        runner.resume()
        runner.run(t_end)
        assert np.array_equal(sA.Q, sC.Q)
        assert np.array_equal(sA.gravity.eta, sC.gravity.eta)
        for name in fA.STATE_FIELDS:
            assert np.array_equal(getattr(fA, name), getattr(fC, name)), name
        assert np.array_equal(ltsA.updates, ltsC.updates)


class TestCaptureRestore:
    def test_capture_is_a_deep_copy(self):
        solver = build_gts()
        solver.run(0.05)
        snap = capture_state(solver)
        q_before = snap["Q"].copy()
        solver.run(0.1)
        assert np.array_equal(snap["Q"], q_before)
        restore_state(solver, snap)
        assert np.array_equal(solver.Q, q_before)
        assert solver.t == float(snap["t"])


# ----------------------------------------------------------------------
class TestCorruptFallback:
    """A damaged newest rotation must never poison a resume (ISSUE 6)."""

    def _two_rotations(self, tmp_path):
        solver = build_gts()
        mgr = CheckpointManager(str(tmp_path), solver, keep=3)
        solver.run(0.05)
        mgr.save(10)
        good_state = capture_state(solver)
        solver.run(0.1)
        mgr.save(20)
        return solver, mgr, good_state

    def test_restore_latest_skips_corrupt_newest(self, tmp_path):
        solver, mgr, good_state = self._two_rotations(tmp_path)
        # kill -9 mid-write through a non-atomic path: garbage newest file
        with open(mgr.path_for(20), "wb") as f:
            f.write(b"\x00" * 100)
        solver.run(0.15)  # wander away from both rotations
        with pytest.warns(RuntimeWarning, match="skipping unreadable"):
            meta = mgr.restore_latest()
        assert meta is not None and int(float(meta["step"])) == 10
        assert solver.t == float(good_state["t"])
        assert np.array_equal(solver.Q, good_state["Q"])

    def test_restore_latest_skips_truncated_newest(self, tmp_path):
        solver, mgr, good_state = self._two_rotations(tmp_path)
        raw = open(mgr.path_for(20), "rb").read()
        with open(mgr.path_for(20), "wb") as f:
            f.write(raw[: len(raw) // 2])  # torn at half length
        with pytest.warns(RuntimeWarning, match="skipping unreadable"):
            meta = mgr.restore_latest()
        assert int(float(meta["step"])) == 10
        assert np.array_equal(solver.Q, good_state["Q"])

    def test_restore_latest_all_corrupt_returns_none(self, tmp_path):
        solver, mgr, _ = self._two_rotations(tmp_path)
        for step in (10, 20):
            with open(mgr.path_for(step), "wb") as f:
                f.write(b"junk")
        with pytest.warns(RuntimeWarning):
            assert mgr.restore_latest() is None

    def test_fingerprint_mismatch_still_raises_strict(self, tmp_path):
        solver = build_gts(order=2)
        mgr = CheckpointManager(str(tmp_path), solver, keep=3)
        mgr.save(10)
        other = CoupledSolver(solver.mesh, order=1)
        mgr2 = CheckpointManager(str(tmp_path), other, keep=3)
        # damaged files are a fallback case; a *foreign* checkpoint is not
        with pytest.raises(CheckpointError, match="different problem"):
            mgr2.restore_latest()

    def test_latest_checkpoint_validate_skips_corrupt(self, tmp_path):
        solver, mgr, _ = self._two_rotations(tmp_path)
        with open(mgr.path_for(20), "wb") as f:
            f.write(b"\x00junk")
        # without validation the damaged newest wins; with it, the
        # next-newest readable rotation does
        assert latest_checkpoint(str(tmp_path)) == mgr.path_for(20)
        with pytest.warns(RuntimeWarning, match="skipping unreadable"):
            best = latest_checkpoint(str(tmp_path), validate=True)
        assert best == mgr.path_for(10)

    def test_candidates_sorted_newest_first(self, tmp_path):
        solver = build_gts()
        mgr = CheckpointManager(str(tmp_path), solver, keep=5)
        for step in (5, 30, 10):
            mgr.save(step)
        from repro.io.checkpoint import checkpoint_candidates

        steps = [int(os.path.basename(p)[5:-4])
                 for p in checkpoint_candidates(str(tmp_path))]
        assert steps == [30, 10, 5]
