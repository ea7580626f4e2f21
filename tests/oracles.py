"""Independent brute-force references the library is checked against.

Everything here is deliberately naive: scalar complex arithmetic, nodal
analysis solved exactly in rational arithmetic (``fractions.Fraction``, so
an ill-conditioned system near series resonance loses no digits), no shared
code with the package beyond reading its data structures.  Slow is fine;
different is the point.  The exceptions are the frozen copies at the end
of the package's earlier code (the masked network evaluator, the per-quarter
master, the ideal bus that told every slave every edge, and the bus-load
sums), kept so the current code can be held to the same results bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from fdmlink.elements import DegenerateNetworkError, Network
from fdmlink.protocol import EDGE_FALL, EDGE_RISE, GAP_BITS, LEAD_IN_BITS

OPEN = complex(math.inf, 0.0)


def _is_open(z: complex) -> bool:
    return not cmath.isfinite(z) or abs(z) >= 1e12


def element_z(kind: str, value: float, loss: float, f: float) -> complex:
    w = 2.0 * math.pi * f
    if kind == "resistor":
        z = complex(value)
    elif kind == "inductor":
        z = complex(loss, w * value)
        return z
    elif kind == "capacitor":
        z = complex(0.0, -1.0 / (w * value))
    elif kind == "short":
        return 0j
    elif kind == "open":
        return complex(loss) if loss > 0.0 else OPEN
    else:
        raise ValueError(kind)
    if loss > 0.0:
        z = z * loss / (z + loss)
    return z


def network_z(net, f: float) -> complex:
    """Walk a Network tree with plain scalar arithmetic."""
    if net.op == "leaf":
        e = net.element
        return element_z(e.kind, e.value, e.loss, f)
    zs = [network_z(c, f) for c in net.children]
    if net.op == "series":
        if any(_is_open(z) for z in zs):
            return OPEN
        return sum(zs, 0j)
    # parallel
    if any(z == 0 for z in zs):
        return 0j
    y = sum((1.0 / z) for z in zs if not _is_open(z))
    return OPEN if y == 0 else 1.0 / y


# exact complex numbers as (real, imag) pairs of Fractions
_C0 = (Fraction(0), Fraction(0))
_C1 = (Fraction(1), Fraction(0))


def _c_exact(z: complex) -> tuple[Fraction, Fraction]:
    return Fraction(z.real), Fraction(z.imag)


def _c_neg(a):
    return -a[0], -a[1]


def _c_add(*zs):
    return sum(z[0] for z in zs), sum(z[1] for z in zs)


def _c_sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _c_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _c_div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d


def t_network_zin_nodal(x1: complex, x2: complex, xm: complex, z_load: complex) -> complex:
    """Port-1 input impedance of a T-network by nodal analysis.

    Node 1 is the driven port, node 2 the internal star point, node 3 the
    loaded port.  Inject 1 A into node 1; Zin is then V1 numerically.
    Branch impedances are given directly (complex ohms).  Every float input
    converts to a Fraction exactly and the nodal system is solved by
    Gaussian elimination in rational arithmetic, so the only rounding is
    the final conversion of V1 to complex.
    """
    # shorted branches collapse nodes; keep the oracle simple by nudging
    # exact shorts to a tiny resistance instead of special-casing topology
    tiny = 1e-15

    def admittance(z: complex):
        if _is_open(z):
            return _C0
        return _c_div(_C1, _c_exact(complex(tiny) if z == 0 else z))

    y1, y2, ym, yl = (admittance(z) for z in (x1, x2, xm, z_load))

    # augmented rows [G | injected current]
    rows = [
        [y1, _c_neg(y1), _C0, _C1],
        [_c_neg(y1), _c_add(y1, ym, y2), _c_neg(y2), _C0],
        [_C0, _c_neg(y2), _c_add(y2, yl), _C0],
    ]
    for col in range(3):
        pivot = next((r for r in range(col, 3) if rows[r][col] != _C0), None)
        if pivot is None:
            return OPEN  # singular: no finite port voltage
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, 3):
            k = _c_div(rows[r][col], rows[col][col])
            rows[r] = [_c_sub(a, _c_mul(k, b)) for a, b in zip(rows[r], rows[col])]
    v = [_C0] * 3
    for r in (2, 1, 0):
        acc = rows[r][3]
        for c in range(r + 1, 3):
            acc = _c_sub(acc, _c_mul(rows[r][c], v[c]))
        v[r] = _c_div(acc, rows[r][r])
    re, im = v[0]
    if re * re + im * im >= Fraction(10) ** 24:
        return OPEN
    return complex(float(re), float(im))


def envelope_ratio(z_h: complex, z_l: complex, z_p: complex) -> float:
    """Line-voltage ratio between pin states from the raw divider."""
    vh = abs(z_h / (z_p + z_h))
    vl = abs(z_l / (z_p + z_l))
    return vh / vl


def wired_and(levels_by_driver) -> int:
    """Open-drain bus: low wins."""
    return 0 if any(lv == 0 for lv in levels_by_driver) else 1


# -- the masked evaluator that the one-pass rule replaced --
#
# Network._eval, element_impedance and input_impedance as they stood before
# series and parallel nodes skipped their masks on ordinary values, copied
# verbatim apart from taking the network as an argument and the two-port as
# its three branches.  The package must match them bit for bit.

_POLE_CLAMP = 1e12
_EPS_POLE = 1e-12
_POLE = complex(np.inf, 0.0)


def _check_freq(f) -> np.ndarray:
    arr = np.asarray(f, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("frequency must be positive and finite (Hz)")
    return arr


def masked_element_impedance(e, f):
    farr = _check_freq(f)
    w = 2.0 * math.pi * farr
    if e.kind == "resistor":
        z = np.broadcast_to(complex(e.value, 0.0), farr.shape).copy()
    elif e.kind == "inductor":
        z = e.loss + 1j * w * e.value
    elif e.kind == "capacitor":
        wc = w * e.value
        if not wc.all():  # w*C == 0 is indeterminate, at a scalar and in an array
            raise DegenerateNetworkError("capacitor impedance is indeterminate")
        z = -1j / wc
        if e.loss > 0.0:
            z = z * e.loss / (z + e.loss)
    elif e.kind == "short":
        z = np.broadcast_to(0.0 + 0.0j, farr.shape).copy()
    elif e.kind == "open":
        if e.loss > 0.0:
            z = np.broadcast_to(complex(e.loss, 0.0), farr.shape).copy()
        else:
            z = np.broadcast_to(_POLE, farr.shape).copy()
    else:
        raise ValueError(f"unknown element kind {e.kind!r}")
    return z if np.ndim(f) else complex(np.asarray(z)[()])


def masked_impedance(net, f):
    """``Network.impedance`` over the masked evaluator."""
    farr = _check_freq(f)
    z = masked_eval(net, farr)
    if np.any(np.isnan(z)):
        raise DegenerateNetworkError("network evaluates to an indeterminate form")
    return z if np.ndim(f) else complex(z[()])


def masked_eval(net, farr: np.ndarray) -> np.ndarray:
    if net.op == "leaf":
        assert net.element is not None
        z = masked_element_impedance(net.element, farr)
        return np.atleast_1d(np.asarray(z)) if farr.ndim else np.asarray(z)
    zs = [masked_eval(c, farr) for c in net.children]
    if net.op == "series":
        total = np.zeros(farr.shape, dtype=complex)
        open_mask = np.zeros(farr.shape, dtype=bool)
        for z in zs:
            pm = ~np.isfinite(z)
            open_mask |= pm
            total = total + np.where(pm, 0.0, z)
        return np.where(open_mask, _POLE, total)
    # parallel: work in admittance, opens contribute zero
    short_mask = np.zeros(farr.shape, dtype=bool)
    y = np.zeros(farr.shape, dtype=complex)
    for z in zs:
        zero = z == 0.0
        short_mask |= zero
        safe = np.where(zero | ~np.isfinite(z), 1.0, z)
        y = y + np.where(~np.isfinite(z), 0.0, 1.0 / safe) * np.where(zero, 0.0, 1.0)
    y_zero = y == 0.0
    safe_y = np.where(y_zero, 1.0, y)
    out = np.where(y_zero, _POLE, 1.0 / safe_y)
    return np.where(short_mask, 0.0 + 0.0j, out)


def _flat_series(a, b):
    """``series(a, b)`` with the package's flattening of nested series nodes."""
    kids = tuple(k for n in (a, b) for k in (n.children if n.op == "series" else (n,)))
    return Network("series", children=kids)


def masked_input_impedance(x1, x2, xm, z_load, f):
    """``input_impedance`` of the T (x1, x2, xm), with z11 and z22 as the series x1+xm and x2+xm."""
    farr = _check_freq(f)
    z11 = np.asarray(masked_impedance(_flat_series(x1, xm), farr), dtype=complex)
    zm = np.asarray(masked_impedance(xm, farr), dtype=complex)
    z22 = np.asarray(masked_impedance(_flat_series(x2, xm), farr), dtype=complex)
    zl = np.asarray(z_load, dtype=complex)
    den = zl + z22

    with np.errstate(all="ignore"):
        out = z11 - zm * zm / den
    # an open-ish denominator decouples port 2 entirely
    den_open = ~np.isfinite(den) | (np.abs(den) >= _POLE_CLAMP)
    out = np.where(den_open, z11, out)
    zm2 = np.abs(zm) ** 2
    out = np.where(~den_open & (np.abs(den) < _EPS_POLE * zm2), _POLE, out)
    out = np.where(~np.isfinite(z11), _POLE, out)
    if np.any(np.isnan(out)):
        raise DegenerateNetworkError("input impedance is indeterminate (0/0)")
    return out if np.ndim(f) else complex(np.asarray(out)[()])


# -- the earlier per-quarter master program ----------------------------------


def master_quarters(master, results: list):
    """The quarter intents of ``master``'s transactions, one per quarter, as a generator.

    Receives the observed (scl, sda) of each quarter and appends the decoded
    transactions to ``results``.
    """
    H, L = 1, 0

    def fixed(intents):
        for q in intents:
            yield q

    def idle(quarters):
        yield from fixed([(H, H)] * quarters)

    def byte_tx(byte):
        for bit in range(7, -1, -1):
            v = (byte >> bit) & 1
            yield (L, v)
            yield (H, v)
            yield (H, v)
            yield (L, v)
        yield (L, H)
        yield (H, H)
        res = yield (H, H)
        yield (L, H)
        return res[1] == L

    def byte_rx(ack):
        value = 0
        for _ in range(8):
            yield (L, H)
            yield (H, H)
            res = yield (H, H)
            yield (L, H)
            value = (value << 1) | (1 if res[1] else 0)
        a = L if ack else H
        yield (L, a)
        yield (H, a)
        yield (H, a)
        yield (L, a)
        return value

    yield from idle(LEAD_IN_BITS * 4)
    stopped = True
    for t in master.transactions:
        if stopped:
            yield from fixed(((H, H), (H, L), (L, L)))
        else:
            yield from fixed(((L, H), (H, H), (H, L), (L, L)))
        addr_byte = (t.address << 1) | (1 if t.direction == "read" else 0)
        acks = [(yield from byte_tx(addr_byte))]
        data = bytearray()
        completed = acks[0]
        if completed and t.direction == "write":
            for b in t.payload:
                a = yield from byte_tx(b)
                acks.append(a)
                if not a:
                    completed = False
                    break
        elif completed:
            for k in range(t.read_length):
                data.append((yield from byte_rx(ack=k < t.read_length - 1)))
        stop_now = t.stop_after or not completed
        if stop_now:
            yield from fixed(((L, L), (H, L), (H, H), (H, H)))
            yield from idle(GAP_BITS * 4)
        stopped = stop_now
        results.append(
            replace(
                t,
                payload=bytes(data) if t.direction == "read" else t.payload,
                acks=tuple(acks),
                completed=completed,
            )
        )
    yield from idle(8)


# -- the earlier ideal bus, every edge to every slave --------------------------


def deliver_to_all_bus(master, slaves) -> list[tuple[int, int]]:
    """``run_ideal_bus`` as it was before edges were routed: every slave gets every edge.

    Returns the resolved (scl, sda) per quarter.
    """
    H, L = 1, 0
    gen = master.generator()
    quarters = []
    scl_prev, sda_prev = H, H
    intents = next(gen)
    while True:
        scl_i, sda_i = intents
        scl = L if scl_i == L else H
        sda = L if sda_i == L or any(s.sda_drive for s in slaves) else H
        if scl == H and scl_prev == H and sda != sda_prev:
            for s in slaves:
                s.on_sda_edge(sda, scl)
        elif scl != scl_prev:
            if scl == H:
                for s in slaves:
                    s.on_scl_rise(sda)
            else:
                for s in slaves:
                    s.on_scl_fall()
        quarters.append((scl, sda))
        scl_prev, sda_prev = scl, sda
        try:
            intents = gen.send((scl, sda))
        except StopIteration:
            return quarters


def deliver_to_each(slaves, code: int) -> None:
    """``SlaveGroup.edge`` before it routed edges: every slave gets the bus edge ``code``, one by one.

    ``code`` is ``2 * kind + sda``, as the group takes it.
    """
    kind, sda = code >> 1, code & 1
    for s in slaves:
        if kind == EDGE_RISE:
            s.on_scl_rise(sda)
        elif kind == EDGE_FALL:
            s.on_scl_fall()
        else:
            s.on_sda_edge(sda, 1)


# -- the earlier bus-load sums -------------------------------------------------
#
# simulate.bus_amplitude and sweep_node_count as they stood before the
# amplitude table became the one place bus loads are summed, copied verbatim
# apart from inlining their helpers and evaluating each node filter once per
# pin state and call (designs keep no impedances, and the 1..129-node sweep
# would evaluate each about 130 times a call).  The sum and its order are
# unchanged.  The table must match them bit for bit.


def _cap_admittance(z: complex, cap: float) -> complex:
    if _is_open(z) or abs(z) >= cap:
        return 0j
    if z == 0:
        return complex(cap, 0.0)
    return 1.0 / z


def bus_amplitude(topology, states, carrier_index: int) -> float:
    """The line amplitude of one carrier; ``states`` maps each line it lists to one 'H'/'L' per node."""
    c = topology.carriers[carrier_index]
    f = c.frequency
    y = 0j
    zin: dict = {}  # (design id, loss, which, state) -> its impedance at f
    for line in states:
        topology.line_carrier(line)
        for node, st in zip(topology.nodes, states[line]):
            key = (id(node.filters.get(line)), node.loss, node.which, st)
            if key not in zin:
                zin[key] = node.input_impedance(f, line, st)
            z = zin[key]
            if z is not None:
                y += _cap_admittance(z, topology.pole_cap)
    if topology.dc_feed is not None:
        y += _cap_admittance(complex(topology.dc_feed.impedance(f)), topology.pole_cap)
    for other in topology.carriers:
        if other is not c:
            y += _cap_admittance(other.pullup_z(f), topology.pole_cap)
    z_p = c.pullup_z(f)
    z_total = 1.0 / y if y != 0 else complex(topology.pole_cap, 0.0)
    amp = c.amplitude * abs(z_total / (z_p + z_total))
    return amp * 10.0 ** (-topology.attenuation_db / 20.0)


def sweep_node_count(topology, n_range, min_depth_db: float = 6.0) -> list[dict]:
    """Keying depth per line with the first slave replicated to n, from :func:`bus_amplitude` above."""
    template = next(n for n in topology.nodes if n.role == "slave")
    master = topology.nodes[topology.master_index]
    lines = ("scl", "sda")
    rows = []
    for n in n_range:
        nodes = (master,) + tuple(replace(template, name=f"{template.name}_{k}", slave=None) for k in range(n))
        topo = replace(topology, nodes=nodes)
        total = len(nodes)
        row: dict = {"n": n}
        ok = True
        for j, c in enumerate(topo.carriers):
            all_h = {line: ("H",) * total for line in lines}
            one_l = {
                line: tuple("L" if (line == c.line and i == total - 1) else "H" for i in range(total))
                for line in lines
            }
            vh = bus_amplitude(topo, all_h, j)
            vl = bus_amplitude(topo, one_l, j)
            d = 20.0 * math.log10(vh / vl) if vl > 0 else math.inf
            row[f"depth_db_{c.line}"] = d
            ok = ok and d >= min_depth_db
        row["ok"] = ok
        rows.append(row)
    return rows
