"""Parameter storage, the MLP graph, Adam, time embedding, checkpoints.

Every parameter update takes one path, `descend`: one reverse sweep of the
tape from the scalar loss, then per store a flush that sets its grad
buffers (zeroed, then each recorded use's gradient added in tape order),
then one Adam step per store, in the order given.

A checkpoint is an uncompressed numpy `.npz` archive, version 2: one
little-endian float32 array per `group/name` parameter, plus a `header`
string array holding the JSON `{"version": 2, "meta": ...}`. It loads
without pickle; any other file is refused with a ValueError naming it.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ShapeMismatch, StaleTape

_CKPT_VERSION = 2
_CKPT_HEADER = "header"  # the one archive member without a group/ prefix

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class ParamStore:
    """Named float32 parameters with paired grad buffers and Adam state.

    Single-writer: one training loop mutates a store. `version` bumps on
    every mutation so stale tapes can be rejected.
    """

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step = 0
        self.version = 0

    def add(self, name: str, value: np.ndarray) -> None:
        if name in self.params:
            raise ValueError(f"duplicate parameter {name!r}")
        arr = np.ascontiguousarray(value, dtype=np.float32)
        self.params[name] = arr
        self.grads[name] = np.zeros_like(arr)
        self._m[name] = np.zeros_like(arr)
        self._v[name] = np.zeros_like(arr)

    def names(self) -> list[str]:
        return list(self.params)

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def use(self, name: str, tape: ad.Tape, dtype=None) -> ad.Var:
        """Put a parameter on a tape; backward flushes into the grad buffer.

        On a grad=False tape the parameter is a const and is not recorded.
        """
        data = self.params[name]
        if dtype is not None and data.dtype != dtype:
            data = data.astype(dtype)
        var = ad.leaf(data, tape)
        if tape.grad:
            tape.param_uses.append((self, name, var, self.version))
        return var

    def flush_tape_grads(self, tape: ad.Tape) -> None:
        """Set the grad buffers from a swept tape: zeroed, then every use of
        a parameter of this store adds its gradient; rejects stale tapes."""
        self.zero_grads()
        for store, name, var, version in tape.param_uses:
            if store is not self:
                continue
            if version != self.version:
                raise StaleTape(f"parameter {name!r} changed since forward")
            if var.grad is not None:
                self.grads[name] += var.grad.astype(self.grads[name].dtype, copy=False)

    def clone(self) -> "ParamStore":
        out = ParamStore()
        for name, value in self.params.items():
            out.add(name, value.copy())
        return out


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input width first) of a plain MLP: ReLU after every
    layer but the last, which is linear."""

    widths: tuple

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2:
            raise ValueError("an MLP needs at least one layer (two widths)")
        if any(w < 1 for w in self.widths):
            raise ValueError("all widths must be >= 1")

    def n_layers(self) -> int:
        return len(self.widths) - 1


def init_mlp(store: ParamStore, prefix: str, spec: MlpSpec, rng: np.random.Generator):
    """He-initialized weights, zero biases, registered as {prefix}.w{i}/.b{i}."""
    for i, (fan_in, fan_out) in enumerate(zip(spec.widths[:-1], spec.widths[1:])):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        store.add(f"{prefix}.w{i}", w.astype(np.float32))
        store.add(f"{prefix}.b{i}", np.zeros(fan_out, dtype=np.float32))


def mlp_apply(
    spec: MlpSpec, store: ParamStore, prefix: str, x: ad.Var, dtype=None, start: int = 0
) -> ad.Var:
    """Run the MLP on x's tape (x already a Var).

    start > 0 skips the first `start` layers: x is then the activated output
    of layer start - 1, of width spec.widths[start].
    """
    if x.data.ndim != 2 or x.data.shape[1] != spec.widths[start]:
        raise ShapeMismatch(
            f"input width {x.data.shape} incompatible with spec {spec.widths} at layer {start}"
        )
    h = x
    last = spec.n_layers() - 1
    for i in range(start, spec.n_layers()):
        w = store.use(f"{prefix}.w{i}", x.tape, dtype=dtype)
        b = store.use(f"{prefix}.b{i}", x.tape, dtype=dtype)
        h = ad.linear(h, w, b, relu=i < last)
    return h


def adam_step(store: ParamStore, lr: float) -> None:
    """Standard bias-corrected adaptive-moment update over all parameters."""
    store.step += 1
    store.version += 1
    t = store.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for name, p in store.params.items():
        g = store.grads[name]
        m = store._m[name]
        v = store._v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= (lr / c1) * m / (np.sqrt(v / c2) + ADAM_EPS)


def descend(tape: ad.Tape, loss: ad.Var, stores: list, lr: float) -> None:
    """Sweep `tape` once from the scalar `loss`, flush every store's grads,
    then take one Adam step per store, in the order given."""
    tape.backward(loss)
    for store in stores:
        store.flush_tape_grads(tape)
    for store in stores:
        adam_step(store, lr=lr)


def time_embedding(t: int, T: int, dim: int) -> np.ndarray:
    """Sinusoidal embedding of t/T at geometrically spaced frequencies."""
    if not 0 <= t <= T:
        raise ValueError(f"step {t} outside [0, {T}]")
    if dim < 2 or dim % 2 != 0:
        raise ValueError("dim must be even and >= 2")
    freqs = np.geomspace(1.0, 1000.0, dim // 2)
    phase = freqs * (t / T)
    return np.concatenate([np.sin(phase), np.cos(phase)]).astype(np.float32)


def save_checkpoint(path, stores: dict[str, ParamStore], meta: dict | None = None):
    """Write named float32 tensors for one or more stores.

    Layout: an uncompressed `.npz` (written to `path` as given, no suffix
    added) of one `<f4` array per `group/name`, groups and names in sorted
    order, then the `header` string array: JSON `{"meta": ..., "version":
    2}` with sorted keys. The same stores and meta give the same bytes.
    """
    arrays = {
        f"{group}/{name}": np.asarray(stores[group].params[name], dtype="<f4")
        for group in sorted(stores)
        for name in sorted(stores[group].params)
    }
    header = json.dumps({"version": _CKPT_VERSION, "meta": meta or {}}, sort_keys=True)
    with open(path, "wb") as f:
        np.savez(f, **arrays, **{_CKPT_HEADER: np.array(header)})


def load_checkpoint(path):
    """Read a checkpoint; returns ({group: ParamStore}, meta). ValueError,
    naming the file, for anything but a version-2 checkpoint."""
    stores: dict[str, ParamStore] = {}
    try:
        # np.load leaves a file it opened itself open when the zip is bad
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as archive:
            header = json.loads(str(archive[_CKPT_HEADER]))
            if header["version"] != _CKPT_VERSION:
                raise ValueError(f"header version {header['version']!r}")
            for key in archive.files:
                if key != _CKPT_HEADER:
                    group, name = key.split("/", 1)
                    stores.setdefault(group, ParamStore()).add(name, archive[key])
            meta = header["meta"]
    except (ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile) as err:
        raise ValueError(f"{path} is not a version-{_CKPT_VERSION} checkpoint: {err}") from err
    return stores, meta
