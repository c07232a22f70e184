"""Checkpoint/restart: atomic archives, fingerprinting, exact round-trips."""

import os
import time
import zipfile

import numpy as np
import pytest

from repro.core.resilience import ResilientRunner
from repro.core.solver import CoupledSolver
from repro.core.basis import _tet_mode_indices
from repro.io.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointManager,
    capture_state,
    checkpoint_candidates,
    load_checkpoint,
    restore_checkpoint,
    restore_newest,
    restore_state,
    save_checkpoint,
    fingerprint,
)
from repro.sched import Scheduler

# the two-material faulted LTS rig (``sort=True``: renumbered cluster-major)
from .conftest import gravity_box
from tests.test_exec_equivalence import build_lts_fault_gravity


class TestArchive:
    def test_save_is_atomic_and_leaves_no_temp_files(self, tmp_path):
        solver = gravity_box()
        Scheduler(solver).run(0.05)
        path = save_checkpoint(str(tmp_path / "state"), solver)
        assert path.endswith(".npz") and os.path.exists(path)
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []

    def test_roundtrip_restores_every_field(self, tmp_path):
        solver = gravity_box()
        Scheduler(solver).run(0.1)
        path = save_checkpoint(str(tmp_path / "s.npz"), solver,
                               metadata={"note": "mid-run"})
        fresh = gravity_box()
        meta = restore_checkpoint(path, fresh)
        assert meta["note"] == "mid-run"
        assert fresh.t == solver.t
        assert np.array_equal(fresh.Q, solver.Q)
        assert np.array_equal(fresh.gravity.eta, solver.gravity.eta)

    def test_fingerprint_rejects_different_order(self, tmp_path):
        solver = gravity_box(order=2)
        path = save_checkpoint(str(tmp_path / "s.npz"), solver)
        other = CoupledSolver(solver.mesh, order=1)
        with pytest.raises(CheckpointError, match="different problem"):
            restore_checkpoint(path, other)

    def test_fingerprint_strict_false_still_checks_shapes(self, tmp_path):
        solver = gravity_box(order=2)
        path = save_checkpoint(str(tmp_path / "s.npz"), solver)
        other = CoupledSolver(solver.mesh, order=1)
        with pytest.raises(CheckpointError, match="shape"):
            restore_checkpoint(path, other, strict=False)

    def test_fingerprint_differs_between_problems(self):
        a = gravity_box(order=2)
        b = gravity_box(order=1)
        assert fingerprint(a) != fingerprint(b)
        assert fingerprint(a) == fingerprint(gravity_box(order=2))

    def test_corrupt_archive_is_rejected(self, tmp_path):
        bad = tmp_path / "ckpt_0000000001.npz"
        bad.write_bytes(b"not an npz archive")
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(bad))

    def test_fault_state_requires_fault_solver(self, tmp_path):
        solver, fault, lts = build_lts_fault_gravity()
        path = save_checkpoint(str(tmp_path / "f.npz"), solver, lts)
        plain = gravity_box()
        with pytest.raises(CheckpointError):
            restore_state(plain, load_checkpoint(path)["state"])


def member_compression(path):
    """``{member name: zip compression method}`` of an archive."""
    with zipfile.ZipFile(path) as z:
        return {info.filename: info.compress_type for info in z.infolist()}


class TestStoredFormat:
    """Archives are written stored (a developed state is noise to zlib and
    deflate was 21x the write, DESIGN.md "Checkpoint format"); deflated
    archives of the same format version keep loading."""

    def test_every_member_is_stored(self, tmp_path):
        solver, _, lts = build_lts_fault_gravity()
        Scheduler(solver, lts).run(0.05)
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
        baseline = gravity_box()
        ResilientRunner(baseline, checkpoint_every=0.2, verbose=False).run(t_end)

        victim = gravity_box()
        runner = ResilientRunner(victim, checkpoint_every=0.2,
                                 checkpoint_dir=str(tmp_path), verbose=False)
        runner.run(0.2)
        path = runner.checkpoints_written[-1]
        with np.load(path, allow_pickle=False) as d:
            members = {k: d[k] for k in d.files}
        np.savez_compressed(path, **members)
        assert set(member_compression(path).values()) == {zipfile.ZIP_DEFLATED}
        assert load_checkpoint(path)["version"] == CHECKPOINT_VERSION

        resumed = gravity_box()
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

    def test_version_1_archive_is_refused(self, tmp_path):
        """Version 1 stored ``Q`` in the ``(i, j, k)`` lexicographic mode
        order of earlier builds; the modes are degree-ordered now, which
        the fingerprint does not see.  A version-1 archive (same problem,
        same fingerprint, ``Q`` in the old order) is refused by name, and
        a resume falls back past it instead of restoring it permuted."""
        solver = gravity_box()
        Scheduler(solver).run(0.1)
        good = save_checkpoint(str(tmp_path / "ckpt_0001.npz"), solver)
        want = solver.Q.copy()
        Scheduler(solver).run(0.2)
        order = solver.order
        lex = [(i, j, k) for i in range(order + 1)
               for j in range(order + 1 - i) for k in range(order + 1 - i - j)]
        old_pos = [lex.index(m) for m in _tet_mode_indices(order)]
        assert old_pos != sorted(old_pos)
        path = save_checkpoint(str(tmp_path / "ckpt_0002.npz"), solver)
        with np.load(path, allow_pickle=False) as d:
            members = {k: d[k] for k in d.files}
        members["Q"] = np.empty_like(members["Q"])
        members["Q"][:, old_pos] = solver.Q
        members["version"] = np.int64(1)
        np.savez(path, **members)

        fresh = gravity_box()
        with pytest.raises(CheckpointError, match="format version 1"):
            restore_checkpoint(path, fresh)
        with pytest.warns(RuntimeWarning, match="format version 1"):
            assert restore_newest(str(tmp_path), fresh)[0] == good
        assert np.array_equal(fresh.Q, want)

    def test_handed_state_is_what_lands_on_disk(self, tmp_path):
        solver = gravity_box()
        Scheduler(solver).run(0.05)
        state = capture_state(solver)
        Scheduler(solver).run(0.1)  # the live solver has moved on
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
    def test_rotation_keeps_newest(self, tmp_path, shrink):
        shrink(CheckpointManager, keep=2)
        solver = gravity_box()
        mgr = CheckpointManager(str(tmp_path), solver)
        for step in (10, 20, 30):
            mgr.save(step)
        names = sorted(os.listdir(tmp_path))
        assert names == ["ckpt_0000000020.npz", "ckpt_0000000030.npz"]
        assert checkpoint_candidates(str(tmp_path))[0] == mgr.path_for(30)

    def test_latest_checkpoint_empty_dir(self, tmp_path):
        """Nothing to resume from: no candidates, and a resume raises."""
        assert checkpoint_candidates(str(tmp_path)) == []
        assert checkpoint_candidates(str(tmp_path / "missing")) == []
        solver = gravity_box()
        for where in (tmp_path, tmp_path / "missing"):
            with pytest.raises(CheckpointError, match="no readable checkpoint"):
                restore_newest(str(where), solver)
        assert solver.t == 0.0 and not solver.Q.any()


class TestRoundTripGTS:
    def test_interrupted_run_matches_uninterrupted_bitwise(self, tmp_path):
        t_end = 0.6
        baseline = gravity_box()
        ResilientRunner(baseline, checkpoint_every=0.2, verbose=False).run(t_end)

        # "crash" after 0.4 s of a checkpointed run...
        victim = gravity_box()
        ResilientRunner(
            victim, checkpoint_every=0.2, checkpoint_dir=str(tmp_path),
            verbose=False,
        ).run(0.4)

        # ...then rebuild from scratch and resume from the latest checkpoint
        resumed = gravity_box()
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
        Scheduler(solver, lts if use_lts else None).run(0.05)
        path = save_checkpoint(str(tmp_path / "unsorted.npz"), solver,
                               lts if use_lts else None)
        other, _, other_lts = build_lts_fault_gravity(sort=True)
        assert other.Q.shape == solver.Q.shape
        assert all(isinstance(r.elems, slice) for r in other_lts.rows)
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
        solver = gravity_box()
        Scheduler(solver).run(0.05)
        snap = capture_state(solver)
        q_before = snap["Q"].copy()
        Scheduler(solver).run(0.1)
        assert np.array_equal(snap["Q"], q_before)
        restore_state(solver, snap)
        assert np.array_equal(solver.Q, q_before)
        assert solver.t == float(snap["t"])


# ----------------------------------------------------------------------
class TestCorruptFallback:
    """A damaged newest rotation must never poison a resume (ISSUE 6)."""

    def _two_rotations(self, tmp_path):
        solver = gravity_box()
        mgr = CheckpointManager(str(tmp_path), solver)
        Scheduler(solver).run(0.05)
        mgr.save(10)
        good_state = capture_state(solver)
        Scheduler(solver).run(0.1)
        mgr.save(20)
        return solver, mgr, good_state

    def test_restore_latest_skips_corrupt_newest(self, tmp_path):
        solver, mgr, good_state = self._two_rotations(tmp_path)
        # kill -9 mid-write through a non-atomic path: garbage newest file
        with open(mgr.path_for(20), "wb") as f:
            f.write(b"\x00" * 100)
        Scheduler(solver).run(0.15)  # wander away from both rotations
        with pytest.warns(RuntimeWarning, match="skipping unreadable"):
            path, meta = restore_newest(str(tmp_path), solver)
        assert path == mgr.path_for(10) and int(float(meta["step"])) == 10
        assert solver.t == float(good_state["t"])
        assert np.array_equal(solver.Q, good_state["Q"])

    def test_restore_latest_skips_truncated_newest(self, tmp_path):
        solver, mgr, good_state = self._two_rotations(tmp_path)
        raw = open(mgr.path_for(20), "rb").read()
        with open(mgr.path_for(20), "wb") as f:
            f.write(raw[: len(raw) // 2])  # torn at half length
        with pytest.warns(RuntimeWarning, match="skipping unreadable"):
            _, meta = restore_newest(str(tmp_path), solver)
        assert int(float(meta["step"])) == 10
        assert np.array_equal(solver.Q, good_state["Q"])

    def test_restore_newest_all_corrupt_raises(self, tmp_path):
        solver, mgr, _ = self._two_rotations(tmp_path)
        for step in (10, 20):
            with open(mgr.path_for(step), "wb") as f:
                f.write(b"junk")
        with pytest.warns(RuntimeWarning), \
                pytest.raises(CheckpointError, match="no readable checkpoint"):
            restore_newest(str(tmp_path), solver)

    def test_fingerprint_mismatch_still_raises_strict(self, tmp_path):
        solver = gravity_box(order=2)
        CheckpointManager(str(tmp_path), solver).save(10)
        other = CoupledSolver(solver.mesh, order=1)
        # damaged files are a fallback case; a *foreign* checkpoint is not
        with pytest.raises(CheckpointError, match="different problem"):
            restore_newest(str(tmp_path), other)
        runner = ResilientRunner(other, checkpoint_dir=str(tmp_path),
                                 verbose=False)
        for where in (None, str(tmp_path)):
            with pytest.raises(CheckpointError, match="different problem"):
                runner.resume(where)

    def test_latest_checkpoint_validate_skips_corrupt(self, tmp_path):
        """The newest rotation on disk is not the one restored when it is
        damaged: what gets reported is the file that actually loaded."""
        solver, mgr, _ = self._two_rotations(tmp_path)
        with open(mgr.path_for(20), "wb") as f:
            f.write(b"\x00junk")
        assert checkpoint_candidates(str(tmp_path))[0] == mgr.path_for(20)
        with pytest.warns(RuntimeWarning, match="skipping unreadable"):
            best, _ = restore_newest(str(tmp_path), gravity_box())
        assert best == mgr.path_for(10)

    def test_candidates_sorted_newest_first(self, tmp_path):
        solver = gravity_box()
        mgr = CheckpointManager(str(tmp_path), solver)
        for step in (5, 30, 10):
            mgr.save(step)
        steps = [int(os.path.basename(p)[5:-4])
                 for p in checkpoint_candidates(str(tmp_path))]
        assert steps == [30, 10, 5]


class TestOneResumePath:
    """``ResilientRunner.resume`` is the one way to restart a run: a
    directory (the configured one, or an explicit one) resumes from its
    newest *readable* rotation, and the path it reports — in its return
    value and its ``resume`` event — is the file actually restored."""

    T_END = 0.4

    def _rotations(self, tmp_path):
        """Rotations at 0.1 / 0.2 / 0.3 s, the newest garbled."""
        victim = gravity_box()
        runner = ResilientRunner(victim, checkpoint_every=0.1,
                                 checkpoint_dir=str(tmp_path), verbose=False)
        runner.run(0.3)
        newest, previous, _ = runner.checkpoints_written[::-1]
        with open(newest, "wb") as f:
            f.write(b"\x00garbled")
        return previous

    def _resumed(self, where, checkpoint_dir=None):
        solver = gravity_box()
        runner = ResilientRunner(solver, checkpoint_every=0.1,
                                 checkpoint_dir=checkpoint_dir, verbose=False)
        return solver, runner, runner.resume(where)

    def test_garbled_newest_falls_back_and_reports_it(self, tmp_path):
        previous = self._rotations(tmp_path)
        by_name, runner, named = self._resumed(previous)
        runner.run(self.T_END)

        for where, ckpt_dir in ((str(tmp_path), None), (None, str(tmp_path))):
            with pytest.warns(RuntimeWarning, match="skipping unreadable"):
                solver, runner, meta = self._resumed(where, ckpt_dir)
            assert meta["path"] == previous
            assert solver.t == pytest.approx(0.2)
            resumes = [e for e in runner.recorder.tail()
                       if e["event"] == "resume"]
            assert [e["path"] for e in resumes] == [previous]
            runner.run(self.T_END)
            assert solver.t == by_name.t
            assert np.array_equal(solver.Q, by_name.Q)
            assert np.array_equal(solver.gravity.eta, by_name.gravity.eta)
        assert named["path"] == previous  # a file is restored as given

    def test_empty_directory_raises(self, tmp_path):
        solver = gravity_box()
        runner = ResilientRunner(solver, checkpoint_dir=str(tmp_path / "none"),
                                 verbose=False)
        for where in (None, str(tmp_path)):
            with pytest.raises(CheckpointError, match="no readable checkpoint"):
                runner.resume(where)
        assert solver.t == 0.0 and runner.recorder.tail() == []
