"""Flat `key = value` experiment configuration files.

Lines are `key = value`; blank lines and `#` comments are ignored (inline
`# ...` tails are stripped).  Unknown keys are hard errors that name the
key and its line number, and so does every bad value.  parse_config
returns an ExperimentConfig holding the experiment's SweepPlan, built once;
its resolved values round-trip exactly through to_lines(), which is what
makes repeated runs byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fracvisc.hamiltonians import HamiltonianSpec, make_hamiltonian
from fracvisc.hj import ConstantForcing, CosWaveForcing, ZeroForcing
from fracvisc.rates import InitialData, SweepPlan, check_ladder

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "parse_config_file"]


class ConfigError(ValueError):
    """Invalid configuration input; carries the offending key and line."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        where = ""
        if key is not None:
            where += f" (key {key!r}"
            where += f", line {line})" if line is not None else ")"
        elif line is not None:
            where += f" (line {line})"
        super().__init__(message + where)
        self.key = key
        self.line = line


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config: the experiment's SweepPlan and the settings outside it.

    raw keeps the resolved value strings for an exact echo; lines maps each
    key to the line that set it (None for a default).
    """

    plan: SweepPlan
    mollify_scale: float
    output_dir: str
    seed: int
    raw: tuple[tuple[str, str], ...]
    lines: dict[str, int | None] = field(compare=False)

    def error(self, message: str, key: str) -> ConfigError:
        """A ConfigError on key, naming the line that set it."""
        return ConfigError(message, key=key, line=self.lines[key])

    def sweep_plan(self) -> SweepPlan:
        """The plan, once it passes the checks that only a sweep needs."""
        try:
            check_ladder(self.plan.epsilons)
        except ValueError as exc:
            raise self.error(str(exc), "epsilon_list") from None
        if self.plan.reference == "hopf_lax" and not self.plan.forcing.is_zero:
            raise self.error("the hopf_lax reference requires zero forcing", "forcing")
        return self.plan

    def to_lines(self) -> str:
        """Canonical config text reproducing this configuration."""
        return "".join(f"{k} = {v}\n" for k, v in self.raw)


_DEFAULTS: dict[str, str] = {
    "dim": "1",
    "n_points": "auto",
    "s_list": "0.5",
    "epsilon_list": "geometric:0.0625,0.5,7",
    "hamiltonian": "quadratic",
    "u0": "cos",
    "forcing": "zero",
    "T": "2.0",
    "p_list": "1.5,2,4,inf",
    "snapshot_count": "16",
    "dt_cfl": "0.5",
    "mollify_scale": "0.05",
    "reference": "hopf_lax",
    "output_dir": "out",
    "seed": "0",
}

_KNOWN_KEYS = tuple(_DEFAULTS)


def _fail(msg: str, key: str, line: int | None) -> None:
    raise ConfigError(msg, key=key, line=line)


def _parse_float(text: str, key: str, line: int | None) -> float:
    try:
        v = float(text)
    except ValueError:
        _fail(f"expected a number, got {text!r}", key, line)
    if not math.isfinite(v):
        _fail(f"expected a finite number, got {text!r}", key, line)
    return v


def _parse_int(text: str, key: str, line: int | None) -> int:
    try:
        return int(text)
    except ValueError:
        _fail(f"expected an integer, got {text!r}", key, line)


def _parse_float_list(text: str, key: str, line: int | None, allow_inf: bool = False) -> tuple[float, ...]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            _fail("empty entry in list", key, line)
        if allow_inf and part in ("inf", "Inf", "INF"):
            out.append(math.inf)
            continue
        out.append(_parse_float(part, key, line))
    return tuple(out)


def _distinct(values: tuple[float, ...], key: str, line: int | None) -> tuple[float, ...]:
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        _fail(f"list entries must not repeat, got {repeated[0]:g} more than once", key, line)
    return values


def _parse_epsilons(text: str, key: str, line: int | None) -> tuple[float, ...]:
    if text.startswith("geometric:"):
        body = text[len("geometric:") :]
        parts = [p.strip() for p in body.split(",")]
        if len(parts) != 3:
            _fail("geometric viscosity ladders need start,ratio,count", key, line)
        start = _parse_float(parts[0], key, line)
        ratio = _parse_float(parts[1], key, line)
        count = _parse_int(parts[2], key, line)
        if start <= 0 or not 0 < ratio < 1 or count < 1:
            _fail("geometric ladder needs start > 0, 0 < ratio < 1, count >= 1", key, line)
        eps = tuple(start * ratio**i for i in range(count))
    else:
        eps = _parse_float_list(text, key, line)
    if any(e <= 0 for e in eps):  # a long geometric ladder underflows to 0
        _fail("viscosities must be positive", key, line)
    return _distinct(eps, key, line)


def _parse_u0(text: str, key: str, line: int | None, dim: int) -> InitialData:
    kind, params = text, ()
    if text.startswith("coeffs:"):
        kind, params = "coeffs", _parse_float_list(text[len("coeffs:") :], key, line)
    elif text not in ("cos", "cos2d", "bump"):
        _fail(f"unknown initial data {text!r}; use cos, cos2d, bump or coeffs:...", key, line)
    try:
        u0 = InitialData(kind, params)
        u0.check_dim(dim)
    except ValueError as exc:
        _fail(str(exc), key, line)
    return u0


def _parse_forcing(text: str, line: int | None):
    if text == "zero":
        return ZeroForcing()
    if text.startswith("const:"):
        return ConstantForcing(_parse_float(text[len("const:") :], "forcing", line))
    if text.startswith("cos_wave:"):
        parts = text[len("cos_wave:") :].split(",")
        if len(parts) != 2:
            _fail("cos_wave forcing needs amp,omega", "forcing", line)
        return CosWaveForcing(*(_parse_float(part, "forcing", line) for part in parts))
    _fail(f"unknown forcing {text!r}; use zero, const:c or cos_wave:amp,omega", "forcing", line)


def _parse_hamiltonian(text: str, key: str, line: int | None, dim: int) -> HamiltonianSpec:
    if ":" in text:
        kind, body = text.split(":", 1)
        params = _parse_float_list(body, key, line)
    else:
        kind, params = text, ()
    try:
        return make_hamiltonian(kind, dim, params)
    except ValueError as exc:
        _fail(str(exc), key, line)


def parse_config(text: str, path: str = "<config>") -> ExperimentConfig:
    """Parse config text into an ExperimentConfig; raises ConfigError."""
    values = dict(_DEFAULTS)
    lines_seen: dict[str, int | None] = {k: None for k in values}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: expected 'key = value'", line=lineno)
        key, _, val = stripped.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}: unknown key {key!r}", key=key, line=lineno)
        if not val:
            raise ConfigError(f"{path}: empty value", key=key, line=lineno)
        values[key] = val
        lines_seen[key] = lineno

    ln = lines_seen
    dim = _parse_int(values["dim"], "dim", ln["dim"])
    if dim not in (1, 2):
        _fail(f"dim must be 1 or 2, got {dim}", "dim", ln["dim"])
    if values["n_points"] == "auto":
        n_points = None
    else:
        n_points = _parse_int(values["n_points"], "n_points", ln["n_points"])
        if n_points < 8 or n_points & (n_points - 1):
            _fail("n_points must be 'auto' or a power of two >= 8", "n_points", ln["n_points"])
    s_list = _distinct(_parse_float_list(values["s_list"], "s_list", ln["s_list"]), "s_list", ln["s_list"])
    if any(not 0.0 < s <= 1.0 for s in s_list):
        _fail("s values must lie in (0, 1]", "s_list", ln["s_list"])
    epsilon_list = _parse_epsilons(values["epsilon_list"], "epsilon_list", ln["epsilon_list"])
    hamiltonian = _parse_hamiltonian(values["hamiltonian"], "hamiltonian", ln["hamiltonian"], dim)
    u0 = _parse_u0(values["u0"], "u0", ln["u0"], dim)
    forcing = _parse_forcing(values["forcing"], ln["forcing"])
    T = _parse_float(values["T"], "T", ln["T"])
    if T <= 0:
        _fail("T must be positive", "T", ln["T"])
    p_list = _distinct(_parse_float_list(values["p_list"], "p_list", ln["p_list"], allow_inf=True),
                       "p_list", ln["p_list"])
    if any(p < 1 for p in p_list):
        _fail("p values must satisfy p >= 1", "p_list", ln["p_list"])
    snapshot_count = _parse_int(values["snapshot_count"], "snapshot_count", ln["snapshot_count"])
    if snapshot_count < 2:
        _fail("snapshot_count must be >= 2", "snapshot_count", ln["snapshot_count"])
    dt_cfl = _parse_float(values["dt_cfl"], "dt_cfl", ln["dt_cfl"])
    if not 0.0 < dt_cfl <= 0.6:
        _fail("dt_cfl must lie in (0, 0.6]", "dt_cfl", ln["dt_cfl"])
    mollify_scale = _parse_float(values["mollify_scale"], "mollify_scale", ln["mollify_scale"])
    if mollify_scale < 0.0:
        _fail("mollify_scale must be >= 0", "mollify_scale", ln["mollify_scale"])
    ref, colon, factor = values["reference"].partition(":")
    if ref not in ("hopf_lax", "monotone") or (colon and ref != "monotone"):
        _fail(f"reference must be hopf_lax or monotone[:factor], got {values['reference']!r}",
              "reference", ln["reference"])
    fine_factor = _parse_int(factor, "reference", ln["reference"]) if colon else 4
    if fine_factor < 4 or fine_factor & (fine_factor - 1):
        _fail("monotone fine factor must be a power of two >= 4", "reference", ln["reference"])
    seed = _parse_int(values["seed"], "seed", ln["seed"])

    plan = SweepPlan(dim=dim, s_values=s_list, epsilons=epsilon_list, p_values=p_list, hamiltonian=hamiltonian,
                     u0=u0, forcing=forcing, T=T, snapshot_times=tuple(np.linspace(0.0, T, snapshot_count).tolist()),
                     reference=ref, fine_factor=fine_factor, dt_cfl=dt_cfl, n_points=n_points)
    raw = tuple((k, values[k]) for k in _KNOWN_KEYS)
    return ExperimentConfig(plan=plan, mollify_scale=mollify_scale, output_dir=values["output_dir"], seed=seed,
                            raw=raw, lines=lines_seen)


def parse_config_file(path: str) -> ExperimentConfig:
    with open(path, "r") as fh:
        return parse_config(fh.read(), path=path)
