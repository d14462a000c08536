"""Dataset directory layout: manifest.json + per-scene flat binary files.

Each scene directory holds one little-endian file per entry of
SCENE_FILES, which gives its dtype and shape. Canonical boxes are +/- the
per-part half extents recorded in the manifest.

A dataset's settings are its category, count, seed and point count. The
rest are module constants: the contact threshold geometry.CONTACT_TAU and
the hand's hand.SURFACE_SAMPLES surface points, which the manifest records
and load_manifest checks against the library's, MIN_VISIBLE_CONTACTS, the
fewest contact points a kept scene's cloud holds, and instances.DRAWERS,
the sliding parts of a drawer, which the manifest records as "drawers"
(null for the other categories).

Scene i depends only on (seed, i), so `generate_dataset` builds the scenes
of one call in k = min(usable CPUs, count) processes: the calling process
builds scenes i = 0 mod k, and k - 1 forked workers build one other residue
each, write its binaries and send back the manifest entries. The files are
byte-identical to those of one loop over the scenes, and so is the outcome
of a failing call: the lowest failing scene's error, with the loop's
message, over the tree the loop leaves. No process is started when k = 1,
where the OS has no fork, while other Python threads are alive, or from a
daemonic process.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import shutil
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np

from .. import parallel
from ..errors import EmptyView, FewContacts, GraspFailure
from ..geometry import CONTACT_TAU, OrientedBox, SimilarityTransform
from .hand import ANGLE_HI, ANGLE_LO, SURFACE_SAMPLES, KinematicHand
from .instances import DRAWERS, make_instance
from .render import IMAGE_HEIGHT, IMAGE_WIDTH, Camera
from .scene import DEFAULT_N_POINTS, SceneRecord, sample_scene

FORMAT_NAME = "artipose-dataset"
FORMAT_VERSION = 1

# A scene draw is retried under a fresh deterministic sub-seed when the
# grasp or the view fails, or when fewer than this many cloud points are in
# contact, too few to supervise the contact prior.
MIN_VISIBLE_CONTACTS = 4
MIN_N_POINTS = 8  # the smallest cloud the estimator's encoder takes
MAX_SCENE_ATTEMPTS = 40

# The files of one scene directory: name -> (dtype, shape), in write order.
# The leading sizes: N = the manifest's n_points, P = the entry's part count
# (its half_extents rows) and S = SURFACE_SAMPLES.
SCENE_FILES = {
    "cloud.f32": ("<f4", ("N", 3)),  # camera-frame points, meters
    "seg.u8": ("u1", ("N",)),  # 0 = hand, p+1 = part p
    "nocs.f32": ("<f4", ("N", 3)),  # valid only at object points
    "contact.u8": ("u1", ("N",)),
    "poses.f32": ("<f4", ("P", 13)),  # rotation row-major (9), translation (3), scale (1)
    "boxes.f32": ("<f4", ("P", 8, 3)),  # posed box corners, canonical bit order
    "hand_joints.f32": ("<f4", (21, 3)),
    "hand_surface.f32": ("<f4", ("S", 3)),
    "hand_params.f32": ("<f4", (27,)),  # root rotation row-major (9), root position (3), 15 angles
}


def _stem(name: str) -> str:
    """"cloud" for "cloud.f32": a SCENE_FILES name's key in the manifest's
    dtypes and in the arrays of save_scene and load_scene."""
    return name.split(".")[0]


def scene_dir(root: Path, scene_id: str) -> Path:
    return Path(root) / "scenes" / scene_id


def save_scene(root: Path, record: SceneRecord) -> dict:
    """Write one scene's binaries; returns its manifest entry."""
    d = scene_dir(root, record.scene_id)
    d.mkdir(parents=True, exist_ok=True)
    arrays = {
        "cloud": record.cloud,
        "seg": record.seg,
        "nocs": record.nocs,
        "contact": record.contact,
        "poses": np.stack([np.concatenate([p.R.reshape(9), p.t, [p.s]]) for p in record.part_poses]),
        "boxes": np.stack([b.vertices for b in record.posed_boxes]),
        "hand_joints": record.hand_joints,
        "hand_surface": record.hand_surface,
        "hand_params": record.hand.params(),
    }
    for name, (dtype, _) in SCENE_FILES.items():
        (d / name).write_bytes(np.ascontiguousarray(arrays[_stem(name)], dtype=dtype).tobytes())
    camera = {f.name: getattr(record.camera, f.name) for f in fields(Camera)}
    return {
        "id": record.scene_id,
        "joint_state": [float(v) for v in record.joint_state],
        "half_extents": [[float(v) for v in h] for h in record.half_extents()],
        "camera": {k: v.ravel().tolist() if isinstance(v, np.ndarray) else v for k, v in camera.items()},
    }


def _build_scene(
    root: Path,
    category: str,
    i: int,
    seed: int,
    n_points: int,
) -> tuple:
    """Scene i of a dataset: build its instance, draw it until a draw is
    usable and save it. Returns (manifest entry, part count); raises
    GraspFailure naming the scene and counting each reason when every
    attempt fails."""
    inst_seed = int(
        np.random.default_rng(np.random.SeedSequence([seed, i, 1])).integers(2**31)
    )
    instance = make_instance(category, inst_seed)

    def draw(attempt, min_contacts):
        return sample_scene(
            instance,
            np.random.SeedSequence([seed, i, 2, attempt]),
            n_points=n_points,
            scene_id=_scene_id(i),
            min_contacts=min_contacts,
        )

    record = None
    grasp_failures = empty_views = 0
    few = []  # visible-contact counts of the draws below the floor
    early = []  # the attempts rejected on their candidate pool, before FPS
    for attempt in range(MAX_SCENE_ATTEMPTS):
        try:
            record = draw(attempt, MIN_VISIBLE_CONTACTS)
        except GraspFailure:
            grasp_failures += 1
            continue
        except EmptyView:
            empty_views += 1
            continue
        except FewContacts:
            early.append(attempt)
            continue
        contacts = int(record.contact.sum())
        if contacts >= MIN_VISIBLE_CONTACTS:
            break
        few.append(contacts)
        record = None
    if record is None:
        # the message counts the contacts of each draw's cloud, so the
        # early-rejected draws are drawn again in full
        few += [int(draw(attempt, 0).contact.sum()) for attempt in early]
        raise GraspFailure(
            f"scene {i}: no usable draw in {MAX_SCENE_ATTEMPTS} attempts: "
            f"{grasp_failures} grasp failures, {empty_views} empty views, "
            f"{len(few)} draws below {MIN_VISIBLE_CONTACTS} visible contacts "
            f"(best {max(few, default=0)})"
        )
    entry = save_scene(root, record)
    entry["seed"] = i  # the manifest's "seed" is the scene index
    return entry, record.part_count


def _scene_id(i: int) -> str:
    return f"scene_{i:06d}"


def _run_share(scenes, build, report) -> None:
    """Build the scenes in order, calling report(i, build(i)) for each, or
    report(i, error) for the first that raises and stopping there."""
    for i in scenes:
        try:
            built = build(i)
        except Exception as err:
            report(i, err)
            return
        report(i, built)


def _worker(conn, scenes, build) -> None:
    try:
        _run_share(scenes, build, lambda i, result: conn.send(result))
    finally:
        conn.close()


def _fork_context():
    """The fork context where worker processes may be forked: the OS has
    fork, no other Python thread could hold a lock across the fork, and the
    caller may have children (a daemonic process may not). None otherwise."""
    # imported here: a process that only loads datasets saves its ~0.7 MB
    import multiprocessing

    if (
        "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
        and not multiprocessing.current_process().daemon
    ):
        return multiprocessing.get_context("fork")
    return None


def _build_scenes(root: Path, count: int, build) -> list:
    """[(entry, part_count)] for scenes 0..count-1, as build(i) returns
    them, or the error of the lowest failing scene f, after deleting the
    scene directories above f that were written.

    Workers report through one-way pipes as they go. Every process stops at
    its first failing scene. A worker that exits without reporting all of
    its scenes fails the first scene it did not report with a RuntimeError."""
    k = min(parallel.usable_cpus(), count)
    results = {}
    failures = {}

    def report(i, result):
        (failures if isinstance(result, BaseException) else results)[i] = result

    ctx = _fork_context() if k > 1 else None
    if ctx is None:
        _run_share(range(count), build, report)
    else:
        workers = []
        drained = False
        try:
            for w in range(1, k):
                recv, send = ctx.Pipe(duplex=False)
                scenes = range(w, count, k)
                proc = ctx.Process(target=_worker, args=(send, scenes, build), daemon=True)
                proc.start()
                send.close()
                workers.append((proc, recv, scenes))
            _run_share(range(0, count, k), build, report)
            for proc, recv, scenes in workers:
                for i in scenes:
                    try:
                        result = recv.recv()
                    except EOFError:
                        proc.join()
                        failures[i] = RuntimeError(
                            f"synth worker for scenes {scenes.start}, {scenes.start + k}, ... "
                            f"below {count} exited with code {proc.exitcode} before "
                            f"reporting scene {i}"
                        )
                        break
                    report(i, result)
                    if i in failures:
                        break
            drained = True
        finally:
            for proc, recv, _ in workers:
                recv.close()
                if not drained:  # the calling process is raising: stop, not wait
                    proc.terminate()
                proc.join()
    if failures:
        f = min(failures)
        for i in results:
            if i > f:
                shutil.rmtree(scene_dir(root, _scene_id(i)))
        if f == 0 and results:  # the serial loop makes scenes/ with scene 0
            with contextlib.suppress(OSError):
                (root / "scenes").rmdir()
        raise failures[f]
    return [results[i] for i in range(count)]


def generate_dataset(
    out_dir,
    category: str,
    count: int,
    seed: int,
    n_points: int = DEFAULT_N_POINTS,
) -> Path:
    """Generate `count` scenes of one category; byte-deterministic in args.

    Scene i builds one instance and draws it with SeedSequence((seed, i,
    attempt)); unusable draws (GraspFailure, EmptyView, fewer than
    MIN_VISIBLE_CONTACTS visible contacts) retry with the next attempt
    index, keeping output independent of history. A contact is a point
    within geometry.CONTACT_TAU of the hand's hand.SURFACE_SAMPLES surface
    points; the manifest records both. A draw whose candidate pool
    holds fewer than MIN_VISIBLE_CONTACTS contacts is rejected before its
    furthest-point sampling, since its cloud cannot hold more; that skips
    most of the cost of a draw that would be thrown away and changes no
    output. If all fail, GraspFailure counts each reason, and "(best N)"
    is the largest contact count of a rejected draw's cloud, the
    early-rejected draws being drawn again in full for it.
    Every scene of a category has the same part count: a drawer has
    instances.DRAWERS sliding parts. A negative count or seed, n_points
    below MIN_N_POINTS, or a CONTACT_TAU edited to a value that is not
    positive and finite raises ValueError before anything is written.

    Scenes depend on nothing but their index, so they are built across
    k = min(usable CPUs, count) processes: the calling process builds the
    scenes i = 0 mod k and each of k - 1 forked workers one other residue.
    Every file is byte-identical to the serial loop's, and the manifest is
    written in scene order. On failure the error of the lowest failing
    scene is raised with the serial loop's message, and the tree on disk is
    the one the serial loop leaves; a worker that dies unreported raises a
    RuntimeError naming its scenes and exit code. No process is started
    when k = 1, where the OS has no fork, while other Python threads are
    alive, or from a daemonic process: the calling process then builds every
    scene in order.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if n_points < MIN_N_POINTS:
        raise ValueError(f"n_points must be >= {MIN_N_POINTS}, got {n_points}")
    if not (math.isfinite(CONTACT_TAU) and CONTACT_TAU > 0):
        raise ValueError(f"tau must be positive and finite, got {CONTACT_TAU}")
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    build = functools.partial(
        _build_scene,
        root,
        category,
        seed=seed,
        n_points=n_points,
    )
    built = _build_scenes(root, count, build)
    entries = [entry for entry, _ in built]
    part_count = built[-1][1] if built else None

    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "category": category,
        "count": count,
        "master_seed": seed,
        "n_points": n_points,
        "tau": CONTACT_TAU,
        "surface_samples": SURFACE_SAMPLES,
        "part_count": part_count,
        "drawers": DRAWERS if category == "drawer" else None,
        "image_size": [IMAGE_WIDTH, IMAGE_HEIGHT],
        "dtypes": {_stem(name): dtype for name, (dtype, _) in SCENE_FILES.items()},
        "scenes": entries,
    }
    (root / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return root


def load_manifest(root) -> dict:
    """The manifest of a dataset directory; ValueError when it is not an
    artipose dataset of this FORMAT_VERSION, or when its surface_samples or
    tau is not the library's (the contact labels follow both)."""
    manifest = json.loads((Path(root) / "manifest.json").read_text(encoding="utf-8"))
    if manifest.get("format") != FORMAT_NAME:
        raise ValueError(f"{root} is not an {FORMAT_NAME} directory")
    if manifest.get("version") != FORMAT_VERSION:
        raise ValueError(f"{root} is {FORMAT_NAME} version {manifest.get('version')!r}, not {FORMAT_VERSION}")
    for key, value in (("surface_samples", SURFACE_SAMPLES), ("tau", CONTACT_TAU)):
        if manifest.get(key) != value:
            raise ValueError(f"{root} has {key} {manifest.get(key)!r}; this library uses {value!r}")
    return manifest


def load_scene(root, manifest: dict, entry: dict) -> SceneRecord:
    """Rebuild a SceneRecord (float64 in memory) from one manifest entry.

    A file whose size is not that of its SCENE_FILES shape raises
    ValueError naming the scene and the file. A non-finite value in a pose
    or hand file raises ValueError too, from the SimilarityTransform and
    KinematicHand checks or from the rotation's SVD."""
    d = scene_dir(Path(root), entry["id"])
    half_extents = np.asarray(entry["half_extents"], dtype=np.float64)
    sizes = {"N": manifest["n_points"], "P": len(half_extents), "S": SURFACE_SAMPLES}
    arrays = {}
    for name, (dtype, dims) in SCENE_FILES.items():
        shape = tuple(sizes.get(k, k) for k in dims)
        data = (d / name).read_bytes()
        if len(data) != np.dtype(dtype).itemsize * math.prod(shape):
            raise ValueError(f"scene {entry['id']}: {name} has {len(data)} bytes, not a {shape} {dtype} array")
        # float files load as float64, byte files as writable uint8 copies
        arr = np.frombuffer(data, dtype=dtype).reshape(shape)
        arrays[_stem(name)] = arr.astype(np.float64 if arr.dtype.kind == "f" else arr.dtype)

    # re-orthonormalize the float32 rotations before the strict ctors
    params = arrays["hand_params"]
    u, _, vt = np.linalg.svd(params[:9].reshape(3, 3))
    hand = KinematicHand(u @ vt, params[9:12], np.clip(params[12:], ANGLE_LO, ANGLE_HI))
    part_poses = []
    for row in arrays["poses"]:
        u, _, vt = np.linalg.svd(row[:9].reshape(3, 3))
        part_poses.append(SimilarityTransform(u @ vt, row[9:12], float(row[12])))

    return SceneRecord(
        scene_id=entry["id"],
        category=manifest["category"],
        cloud=arrays["cloud"],
        seg=arrays["seg"],
        nocs=arrays["nocs"],
        contact=arrays["contact"],
        part_poses=part_poses,
        canonical_boxes=[OrientedBox.from_extents(h) for h in half_extents],
        posed_boxes=[OrientedBox(b) for b in arrays["boxes"]],
        hand=hand,
        hand_joints=arrays["hand_joints"],
        hand_surface=arrays["hand_surface"],
        camera=Camera(**entry["camera"]),
        joint_state=np.asarray(entry["joint_state"], dtype=np.float64),
    )


def load_dataset(root, limit: int | None = None) -> tuple[dict, list]:
    """Load the manifest and (up to limit) scene records; a negative limit
    raises ValueError before anything is read."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    manifest = load_manifest(root)
    entries = manifest["scenes"][:limit]
    return manifest, [load_scene(root, manifest, e) for e in entries]
