"""Dataset directory layout: manifest.json + per-scene flat binary files.

All binary payloads are little-endian. Per scene directory:

    cloud.f32         N x 3 float32   camera-frame points, meters
    seg.u8            N   uint8       0 = hand, p+1 = part p
    nocs.f32          N x 3 float32   valid only at object points
    contact.u8        N   uint8
    poses.f32         P x 13 float32  per part: rotation row-major (9),
                                      translation (3), scale (1)
    boxes.f32         P x 8 x 3       posed box corners (canonical bit order)
    hand_joints.f32   21 x 3
    hand_surface.f32  S x 3
    hand_params.f32   27              root rotation row-major (9), root
                                      position (3), 15 flexion angles

Canonical boxes are +/- the per-part half extents recorded in the manifest.

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
import shutil
import threading
from pathlib import Path

import numpy as np

from .. import parallel
from ..errors import EmptyView, GraspFailure
from ..geometry import OrientedBox, SimilarityTransform
from .hand import KinematicHand, default_hand_template
from .instances import make_instance
from .render import FOCAL, IMAGE_HEIGHT, IMAGE_WIDTH, Camera
from .scene import DEFAULT_N_POINTS, SceneRecord, sample_scene

FORMAT_NAME = "artipose-dataset"
FORMAT_VERSION = 1

# A scene draw is retried under a fresh deterministic sub-seed when the
# grasp or the view fails, or when too little of the contact region is
# visible to supervise the contact prior.
MIN_VISIBLE_CONTACTS = 4
MAX_SCENE_ATTEMPTS = 40


def _write_array(path: Path, arr: np.ndarray, dtype: str) -> None:
    path.write_bytes(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def _read_array(path: Path, dtype: str, shape) -> np.ndarray:
    data = np.frombuffer(path.read_bytes(), dtype=dtype)
    return data.reshape(shape)


def scene_dir(root: Path, scene_id: str) -> Path:
    return Path(root) / "scenes" / scene_id


def save_scene(root: Path, record: SceneRecord) -> dict:
    """Write one scene's binaries; returns its manifest entry."""
    d = scene_dir(root, record.scene_id)
    d.mkdir(parents=True, exist_ok=True)
    _write_array(d / "cloud.f32", record.cloud, "<f4")
    _write_array(d / "seg.u8", record.seg, "u1")
    _write_array(d / "nocs.f32", record.nocs, "<f4")
    _write_array(d / "contact.u8", record.contact, "u1")
    poses = np.stack(
        [
            np.concatenate([p.R.reshape(9), p.t, [p.s]])
            for p in record.part_poses
        ]
    )
    _write_array(d / "poses.f32", poses, "<f4")
    boxes = np.stack([b.vertices for b in record.posed_boxes])
    _write_array(d / "boxes.f32", boxes, "<f4")
    _write_array(d / "hand_joints.f32", record.hand_joints, "<f4")
    _write_array(d / "hand_surface.f32", record.hand_surface, "<f4")
    _write_array(d / "hand_params.f32", record.hand.params(), "<f4")
    cam = record.camera
    return {
        "id": record.scene_id,
        "seed": record.scene_seed,
        "joint_state": [float(v) for v in record.joint_state],
        "half_extents": [[float(v) for v in h] for h in record.half_extents()],
        "camera": {
            "fx": cam.fx,
            "fy": cam.fy,
            "cx": cam.cx,
            "cy": cam.cy,
            "width": cam.width,
            "height": cam.height,
            "R": [float(v) for v in cam.R.reshape(9)],
            "t": [float(v) for v in cam.t],
        },
    }


def _build_scene(
    root: Path,
    category: str,
    i: int,
    seed: int,
    instance_kwargs: dict,
    min_contacts: int,
    **sample_kwargs,
) -> tuple:
    """Scene i of a dataset: build its instance, draw it until a draw is
    usable and save it. Returns (manifest entry, part count); raises
    GraspFailure naming the scene and counting each reason when every
    attempt fails."""
    inst_seed = int(
        np.random.default_rng(np.random.SeedSequence([seed, i, 1])).integers(2**31)
    )
    instance = make_instance(category, inst_seed, **instance_kwargs)
    record = None
    grasp_failures = empty_views = 0
    few = []  # visible-contact counts of the draws below min_contacts
    for attempt in range(MAX_SCENE_ATTEMPTS):
        try:
            record = sample_scene(
                instance,
                np.random.SeedSequence([seed, i, 2, attempt]),
                scene_id=_scene_id(i),
                **sample_kwargs,
            )
        except GraspFailure:
            grasp_failures += 1
            continue
        except EmptyView:
            empty_views += 1
            continue
        contacts = int(record.contact.sum())
        if contacts >= min_contacts:
            break
        few.append(contacts)
        record = None
    if record is None:
        raise GraspFailure(
            f"scene {i}: no usable draw in {MAX_SCENE_ATTEMPTS} attempts: "
            f"{grasp_failures} grasp failures, {empty_views} empty views, "
            f"{len(few)} draws below {min_contacts} visible contacts "
            f"(best {max(few, default=0)})"
        )
    entry = save_scene(root, record)
    entry["seed"] = i
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
    tau: float = 0.01,
    surface_samples: int = 512,
    drawers: int | None = 3,
    min_contacts: int = MIN_VISIBLE_CONTACTS,
) -> Path:
    """Generate `count` scenes of one category; byte-deterministic in args.

    Scene i builds one instance and draws it with SeedSequence((seed, i,
    attempt)); unusable draws (GraspFailure, EmptyView, nearly invisible
    contact region) retry with the next attempt index, keeping output
    independent of history. If all fail, GraspFailure counts each reason.
    Drawer instances default to a fixed 3 sliding parts so every scene in a
    dataset has the same part count.

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
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    build = functools.partial(
        _build_scene,
        root,
        category,
        seed=seed,
        instance_kwargs={"drawers": drawers} if category == "drawer" else {},
        min_contacts=min_contacts,
        n_points=n_points,
        tau=tau,
        template=default_hand_template(surface_samples),
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
        "tau": tau,
        "surface_samples": surface_samples,
        "part_count": part_count,
        "drawers": drawers if category == "drawer" else None,
        "image_size": [IMAGE_WIDTH, IMAGE_HEIGHT],
        "dtypes": {
            "cloud": "<f4",
            "seg": "u1",
            "nocs": "<f4",
            "contact": "u1",
            "poses": "<f4",
            "boxes": "<f4",
            "hand_joints": "<f4",
            "hand_surface": "<f4",
            "hand_params": "<f4",
        },
        "scenes": entries,
    }
    (root / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return root


def load_manifest(root) -> dict:
    manifest = json.loads((Path(root) / "manifest.json").read_text(encoding="utf-8"))
    if manifest.get("format") != FORMAT_NAME:
        raise ValueError(f"{root} is not an {FORMAT_NAME} directory")
    return manifest


def load_scene(root, manifest: dict, entry: dict) -> SceneRecord:
    """Rebuild a SceneRecord (float64 in memory) from one manifest entry."""
    d = scene_dir(Path(root), entry["id"])
    n = manifest["n_points"]
    s = manifest["surface_samples"]
    half_extents = np.asarray(entry["half_extents"], dtype=np.float64)
    p = len(half_extents)

    cloud = _read_array(d / "cloud.f32", "<f4", (n, 3)).astype(np.float64)
    seg = _read_array(d / "seg.u8", "u1", (n,)).copy()
    nocs = _read_array(d / "nocs.f32", "<f4", (n, 3)).astype(np.float64)
    contact = _read_array(d / "contact.u8", "u1", (n,)).copy()
    poses_raw = _read_array(d / "poses.f32", "<f4", (p, 13)).astype(np.float64)
    boxes_raw = _read_array(d / "boxes.f32", "<f4", (p, 8, 3)).astype(np.float64)
    hand_joints = _read_array(d / "hand_joints.f32", "<f4", (21, 3)).astype(np.float64)
    hand_surface = _read_array(d / "hand_surface.f32", "<f4", (s, 3)).astype(np.float64)
    hand_params = _read_array(d / "hand_params.f32", "<f4", (27,)).astype(np.float64)

    template = default_hand_template(s)
    # re-orthonormalize the float32 root rotation before the strict ctor
    root_R = hand_params[:9].reshape(3, 3)
    u, _, vt = np.linalg.svd(root_R)
    root_R = u @ vt
    hand = KinematicHand(root_R, hand_params[9:12], np.clip(hand_params[12:], 0, np.pi / 2), template)

    part_poses = []
    for row in poses_raw:
        R = row[:9].reshape(3, 3)
        u, _, vt = np.linalg.svd(R)
        part_poses.append(SimilarityTransform(u @ vt, row[9:12], float(row[12])))

    cam = entry["camera"]
    camera = Camera(
        fx=cam["fx"],
        fy=cam["fy"],
        cx=cam["cx"],
        cy=cam["cy"],
        width=cam["width"],
        height=cam["height"],
        R=np.asarray(cam["R"]).reshape(3, 3),
        t=np.asarray(cam["t"]),
    )

    return SceneRecord(
        scene_id=entry["id"],
        category=manifest["category"],
        cloud=cloud,
        seg=seg,
        nocs=nocs,
        contact=contact,
        part_poses=part_poses,
        canonical_boxes=[OrientedBox.from_extents(h) for h in half_extents],
        posed_boxes=[OrientedBox(b) for b in boxes_raw],
        hand=hand,
        hand_joints=hand_joints,
        hand_surface=hand_surface,
        camera=camera,
        joint_state=np.asarray(entry["joint_state"], dtype=np.float64),
        tau=manifest["tau"],
        scene_seed=entry["seed"],
    )


def load_dataset(root, limit: int | None = None) -> tuple[dict, list]:
    """Load the manifest and (up to limit) scene records."""
    manifest = load_manifest(root)
    entries = manifest["scenes"][:limit]
    return manifest, [load_scene(root, manifest, e) for e in entries]
