"""Dataset directory layout: manifest.json + per-scene flat binary files.

Each scene directory holds one little-endian file per entry of
SCENE_FILES, which gives its dtype and shape. Canonical boxes are +/- the
per-part half extents recorded in the manifest.

A dataset's settings are its category, count, seed and point count. The
rest are module constants: the contact threshold geometry.CONTACT_TAU and
the hand's hand.SURFACE_SAMPLES surface points, which the manifest records
and load_manifest checks against the library's, and MIN_VISIBLE_CONTACTS,
the fewest contact points a kept scene's cloud holds.

The manifest holds one entry per requested scene, in index order. A kept
scene's entry holds its "id", its "index", its "joint_state",
"half_extents" and "camera". A scene with no usable draw in
MAX_SCENE_ATTEMPTS is recorded, not raised: its entry holds only "id",
"index" and "failed", the reason with the count of draws each stage
rejected, and no file is written for it: the process that records it
removes the scene's directory, which a dataset written there before may
have left. load_dataset skips such entries.

Scene i depends only on (seed, i), so `generate_dataset` builds the scenes
of one call in k = min(usable CPUs, count) processes: the calling process
builds scenes i = 0 mod k, and k - 1 forked workers build one other residue
each, write its binaries and send back the manifest entries. The files and
the manifest are byte-identical to those of one loop over the scenes, and
no process stops at a failed scene. An unexpected error (an OSError, a bug)
is raised as it is, and a worker that dies unreported raises RuntimeError;
either ends the call before the manifest is written, with no promise about
the scene files already written. No process is started when k = 1, where
the OS has no fork, while other Python threads are alive, or from a
daemonic process.
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import threading
import traceback
from dataclasses import fields
from pathlib import Path

import numpy as np

from .. import parallel
from ..errors import EmptyView, FewContacts, GraspFailure
from ..geometry import CONTACT_TAU, OrientedBox, SimilarityTransform
from .hand import ANGLE_HI, ANGLE_LO, SURFACE_SAMPLES, KinematicHand
from .instances import make_instance
from .render import IMAGE_HEIGHT, IMAGE_WIDTH, Camera
from .scene import DEFAULT_N_POINTS, SceneRecord, sample_scene

FORMAT_NAME = "artipose-dataset"
FORMAT_VERSION = 2

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
) -> dict:
    """Scene i of a dataset: build its instance, draw it until a draw is
    usable and save it. Returns its manifest entry; when every attempt
    fails, the entry records why, and no file of the scene is left."""
    inst_seed = int(
        np.random.default_rng(np.random.SeedSequence([seed, i, 1])).integers(2**31)
    )
    instance = make_instance(category, inst_seed)
    grasp_failures = empty_views = few_in_pool = few_in_cloud = 0
    for attempt in range(MAX_SCENE_ATTEMPTS):
        try:
            record = sample_scene(
                instance,
                np.random.SeedSequence([seed, i, 2, attempt]),
                n_points=n_points,
                scene_id=_scene_id(i),
                min_contacts=MIN_VISIBLE_CONTACTS,
            )
        except GraspFailure:
            grasp_failures += 1
        except EmptyView:
            empty_views += 1
        except FewContacts:
            few_in_pool += 1
        else:
            if int(record.contact.sum()) >= MIN_VISIBLE_CONTACTS:
                return {**save_scene(root, record), "index": i}
            few_in_cloud += 1
    d = scene_dir(root, _scene_id(i))
    if d.exists():  # left by a dataset written here before
        shutil.rmtree(d)
    return {
        "id": _scene_id(i),
        "index": i,
        "failed": (
            f"no usable draw in {MAX_SCENE_ATTEMPTS} attempts: {grasp_failures} grasp failures, "
            f"{empty_views} empty views, {few_in_pool + few_in_cloud} draws below "
            f"{MIN_VISIBLE_CONTACTS} visible contacts ({few_in_pool} in the candidate pool, "
            f"{few_in_cloud} in the cloud)"
        ),
    }


def _scene_id(i: int) -> str:
    return f"scene_{i:06d}"


def _worker(conn, scenes, build) -> None:
    """Send build(i) for each scene in order, or the first exception one
    raises, with the worker's traceback as a note, and stop there."""
    try:
        for i in scenes:
            try:
                conn.send(build(i))
            except Exception as err:
                err.add_note(traceback.format_exc())
                conn.send(err)
                return
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


def _build_scenes(count: int, build) -> list:
    """[build(i) for i in range(count)], built across k processes.

    Workers report through one-way pipes as they go. An exception raised
    in the calling process propagates at once, and one a worker reports is
    raised when the calling process reads it. A worker that exits without
    reporting all of its scenes raises a RuntimeError naming the first
    scene it did not report."""
    k = min(parallel.usable_cpus(), count)
    ctx = _fork_context() if k > 1 else None
    if ctx is None:
        return [build(i) for i in range(count)]
    results = {}
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
        for i in range(0, count, k):
            results[i] = build(i)
        for proc, recv, scenes in workers:
            for i in scenes:
                try:
                    results[i] = recv.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(
                        f"synth worker for scenes {scenes.start}, {scenes.start + k}, ... "
                        f"below {count} exited with code {proc.exitcode} before "
                        f"reporting scene {i}"
                    ) from None
                if isinstance(results[i], Exception):
                    raise results[i]
        drained = True
    finally:
        for proc, recv, _ in workers:
            recv.close()
            if not drained:  # the calling process is raising: stop, not wait
                proc.terminate()
            proc.join()
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
    output. Each attempt is drawn once.

    A scene with no usable draw in MAX_SCENE_ATTEMPTS raises nothing: its
    manifest entry holds "id", "index" and "failed", which counts the
    grasp failures, the empty views and the draws whose candidate pool or
    cloud held too few contacts. No file is written for it, the process
    that records it removes its directory (left by an earlier dataset in
    `out_dir`), and every other scene is built. The manifest's "count" is
    the requested count and "part_count" that of the kept scenes (null
    when none is kept); every scene of a category has the same part
    count, a drawer's instances.DRAWERS sliding parts and its body. A
    negative count or seed, n_points below MIN_N_POINTS, or a CONTACT_TAU
    edited to a value that is not positive and finite raises ValueError
    before anything is written.

    Scenes depend on nothing but their index, so they are built across
    k = min(usable CPUs, count) processes: the calling process builds the
    scenes i = 0 mod k and each of k - 1 forked workers one other residue.
    Every file, the manifest included, is byte-identical to the serial
    loop's, and no process stops at a failed scene. An unexpected error
    (an OSError, a bug) propagates from the process that meets it, and a
    worker that dies unreported raises a RuntimeError naming its scenes,
    its exit code and the first scene it did not report; either ends the
    call before the manifest is written, with no promise about the scene
    files already written. No process is started when k = 1, where the OS
    has no fork, while other Python threads are alive, or from a daemonic
    process: the calling process then builds every scene in order.
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
    entries = _build_scenes(count, build)
    kept = [e for e in entries if "failed" not in e]

    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "category": category,
        "count": count,
        "master_seed": seed,
        "n_points": n_points,
        "tau": CONTACT_TAU,
        "surface_samples": SURFACE_SAMPLES,
        "part_count": len(kept[0]["half_extents"]) if kept else None,
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


def _orthonormal(entries: np.ndarray) -> np.ndarray:
    """The rotation nearest nine float32-rounded matrix entries, by SVD,
    for the strict SimilarityTransform and KinematicHand checks."""
    if not np.isfinite(entries).all():
        raise ValueError(f"rotation entries must be finite, got {entries}")
    u, _, vt = np.linalg.svd(entries.reshape(3, 3))
    return u @ vt


def load_scene(root, manifest: dict, entry: dict) -> SceneRecord:
    """Rebuild a SceneRecord (float64 in memory) from one manifest entry.

    A file whose size is not that of its SCENE_FILES shape raises
    ValueError naming the scene and the file. So does a non-finite value
    in a pose or hand file: a rotation entry is checked before its SVD,
    the rest by the SimilarityTransform and KinematicHand checks."""
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

    def parse(stem, build):
        """build(array) of the file named by `stem`; its ValueError names the
        scene and the file."""
        try:
            return build(arrays[stem])
        except ValueError as err:
            name = next(n for n in SCENE_FILES if _stem(n) == stem)
            raise ValueError(f"scene {entry['id']}: {name}: {err}") from err

    hand = parse(
        "hand_params",
        lambda p: KinematicHand(_orthonormal(p[:9]), p[9:12], np.clip(p[12:], ANGLE_LO, ANGLE_HI)),
    )
    part_poses = parse(
        "poses",
        lambda rows: [SimilarityTransform(_orthonormal(r[:9]), r[9:12], float(r[12])) for r in rows],
    )

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
    """Load the manifest and the records of its kept scenes, the first
    `limit` of them when limit is given; entries of failed scenes are
    skipped. A negative limit raises ValueError before anything is read."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    manifest = load_manifest(root)
    kept = [e for e in manifest["scenes"] if "failed" not in e]
    return manifest, [load_scene(root, manifest, e) for e in kept[:limit]]
