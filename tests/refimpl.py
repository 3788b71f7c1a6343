"""Reference implementations used as test oracles.

Everything here recomputes results directly from definitions with plain
loops, independently of the package's optimized code paths.  Keep it dumb.
"""

from __future__ import annotations

import json
import math
import random
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from ipaddress import ip_address, ip_network
from typing import Iterable

import numpy as np

from depwalk.flows import CSV_COLUMNS, FlowRecord, ParseReport, Proto, SplitMode
from depwalk.forest import ForestModel, _TreeNodes
from depwalk.seeds import derive_seed
from depwalk.walks import Condition, WalkLabel


# ---------------------------------------------------------------------------
# walk condition checker


def _lr_open(prev, nxt) -> bool:
    return prev.t_start <= nxt.t_start and nxt.t_start <= nxt.t_end and nxt.t_end <= prev.t_end


def _lr_return_times(prev, nxt) -> bool:
    return nxt.t_start <= prev.t_start and prev.t_start <= prev.t_end and prev.t_end <= nxt.t_end


def _earlier_reverse(prefix, candidate) -> bool:
    current = prefix[-1]
    for j in range(len(prefix) - 2):
        if prefix[j] == candidate and prefix[j + 1] == current:
            return True
    return False


def _rr_open(prev, nxt, eps) -> bool:
    return prev.t_end <= nxt.t_start and nxt.t_start - prev.t_end <= eps


def _rev_return(fwd, rev, eps) -> bool:
    if fwd.src_port != rev.dst_port or fwd.dst_port != rev.src_port:
        return False
    if fwd.t_start > rev.t_start:
        return False
    return abs(fwd.t_end - rev.t_end) <= eps


def candidate_map(g, cfg, prefix, e_prev):
    """Recompute the per-step candidate set from scratch."""
    current = prefix[-1]
    result = {}

    def add(w, cond, inst):
        conds, insts = result.setdefault(w, (set(), []))
        conds.add(cond)
        if inst not in insts:
            insts.append(inst)

    for w in g.out_neighbors(current):
        if g.pair_flow_count(current, w) < cfg.n_t:
            continue
        for inst in g.edge_instances(current, w):
            if _lr_open(e_prev, inst):
                add(w, Condition.LR_OPEN, inst)
            if _lr_return_times(e_prev, inst) and _earlier_reverse(prefix, w):
                add(w, Condition.LR_RETURN, inst)
            if w == e_prev.src_ip and _rev_return(e_prev, inst, cfg.epsilon):
                add(w, Condition.REV_RETURN, inst)
    for w in g.out_neighbors(e_prev.src_ip):
        if w == current:
            continue
        if g.pair_flow_count(e_prev.src_ip, w) < cfg.n_t:
            continue
        for inst in g.edge_instances(e_prev.src_ip, w):
            if _rr_open(e_prev, inst, cfg.epsilon):
                add(w, Condition.RR_OPEN, inst)
    return result


def check_positive_walk(g, walk, cfg) -> list[str]:
    """Re-derive every step of a positive walk; returns human-readable
    violations (empty when the walk is sound)."""
    problems = []
    verts = walk.vertices
    edges = walk.step_edges
    trace = walk.condition_trace
    if walk.label is not WalkLabel.POSITIVE:
        problems.append("label is not POSITIVE")
        return problems
    if len(verts) < 3:
        problems.append(f"kept walk of length {len(verts)}")
    if len(verts) > cfg.walk_length:
        problems.append(f"walk longer than configured ({len(verts)} > {cfg.walk_length})")
    if len(edges) != len(verts) - 1:
        problems.append("step_edges length mismatch")
        return problems
    if len(trace) != max(0, len(verts) - 2):
        problems.append("condition_trace length mismatch")
        return problems
    if len(verts) < cfg.walk_length and g.out_degree(verts[-1]) != 0:
        problems.append("early termination at a vertex with outgoing edges")

    # first step: threshold rule
    v0, v1 = verts[0], verts[1]
    if edges[0] not in g.edge_instances(v0, v1):
        problems.append("step 1: recorded edge not an instance of the first pair")
    qualified = [u for u in g.out_neighbors(v0) if g.pair_flow_count(v0, u) >= cfg.n_t]
    if qualified:
        if v1 not in qualified:
            problems.append("step 1: threshold neighbours existed but were ignored")
    elif v1 not in g.out_neighbors(v0):
        problems.append("step 1: target is not an out-neighbour")

    fallback_ids = {Condition.FALLBACK_THRESHOLD, Condition.FALLBACK_ANY}
    for step in range(2, len(verts)):
        prefix = list(verts[:step])
        w = verts[step]
        e_prev = edges[step - 2]
        chosen = edges[step - 1]
        conds = set(trace[step - 2])
        cand = candidate_map(g, cfg, prefix, e_prev)
        current = prefix[-1]
        if conds & fallback_ids:
            if len(conds) != 1:
                problems.append(f"step {step}: fallback mixed with condition ids")
            if cand:
                problems.append(f"step {step}: fallback recorded but candidates existed: {sorted(cand)}")
            outs = g.out_neighbors(current)
            qualified = [u for u in outs if g.pair_flow_count(current, u) >= cfg.n_t]
            if Condition.FALLBACK_THRESHOLD in conds:
                if not qualified:
                    problems.append(f"step {step}: threshold fallback without qualified neighbours")
                elif w not in qualified:
                    problems.append(f"step {step}: threshold fallback chose unqualified vertex")
            else:
                if qualified:
                    problems.append(f"step {step}: any-fallback despite qualified neighbours")
                if w not in outs:
                    problems.append(f"step {step}: fallback target is not an out-neighbour")
            if chosen not in g.edge_instances(current, w):
                problems.append(f"step {step}: fallback edge not an instance of the stepped pair")
        else:
            if w not in cand:
                problems.append(f"step {step}: chosen vertex satisfies no condition")
                continue
            ref_conds, ref_insts = cand[w]
            if conds != ref_conds:
                problems.append(
                    f"step {step}: recorded conditions {sorted(c.value for c in conds)} != "
                    f"re-derived {sorted(c.value for c in ref_conds)}")
            if chosen not in ref_insts:
                problems.append(f"step {step}: recorded edge satisfies no condition for the step")
    return problems


# ---------------------------------------------------------------------------
# exhaustive dependency enumeration


def reference_dependencies(flows, cfg) -> list[tuple]:
    """Exhaustive enumeration by definition; returns sorted
    (kind, src, dst, witness_count) tuples, one per kind and pair."""
    flows = list(flows)
    eps = cfg.epsilon
    records = []

    groups = {}
    for f in flows:
        groups.setdefault((f.src_ip, f.dst_ip, f.src_port, f.dst_port, f.proto), []).append(f)
    pair_w = {}
    for key, members in groups.items():
        if len(members) >= cfg.n_t_dd:
            pair = (key[0], key[1])
            pair_w[pair] = pair_w.get(pair, 0) + len(members)
    for (src, dst), count in pair_w.items():
        records.append(("DD", src, dst, count))

    # answered request/reply pairs
    reply_pairs = []
    for i, f1 in enumerate(flows):
        for j, f2 in enumerate(flows):
            if (f2.src_ip == f1.dst_ip and f2.dst_ip == f1.src_ip
                    and f2.src_port == f1.dst_port and f2.dst_port == f1.src_port
                    and f1.t_start <= f2.t_start
                    and abs(f1.t_end - f2.t_end) <= eps):
                reply_pairs.append((i, j))

    # (kind, src, dst) -> indices of the initiating flows of its chains
    witnesses = {}
    for i1, j1 in reply_pairs:
        f1, f2 = flows[i1], flows[j1]
        subject, server1 = f1.src_ip, f1.dst_ip
        for f3 in flows:
            if (f3.src_ip == subject and f3.dst_ip not in (subject, server1)
                    and 0 <= f3.t_start - f2.t_end <= eps):
                witnesses.setdefault(("RR", f3.dst_ip, server1), set()).add(i1)
        for i2, j2 in reply_pairs:
            f3, f4 = flows[i2], flows[j2]
            if f3.src_ip != subject:
                continue
            server2 = f3.dst_ip
            if server2 in (subject, server1):
                continue
            if not 0 <= f3.t_start - f2.t_end <= eps:
                continue
            for f5 in flows:
                if (f5.src_ip == subject and f5.dst_ip not in (subject, server1, server2)
                        and 0 <= f5.t_start - f4.t_end <= eps):
                    witnesses.setdefault(("RR3", f5.dst_ip, server1), set()).add(i1)

    def contains(outer, inner):
        return outer.t_start <= inner.t_start and inner.t_end <= outer.t_end

    def chains(i, path):
        """Whether flow ``i`` starts a chain of nested flows along ``path``."""
        if len(path) == 1:
            return True
        return any((inner.src_ip, inner.dst_ip) == path[:2] and contains(flows[i], inner)
                   and chains(j, path[1:]) for j, inner in enumerate(flows))

    dd_pairs = set(pair_w)
    for a, b in dd_pairs:
        for b2, c in dd_pairs:
            if b2 != b or c == a:
                continue
            for i, fo in enumerate(flows):
                if (fo.src_ip, fo.dst_ip) == (a, b) and chains(i, (b, c)):
                    witnesses.setdefault(("TD", a, c), set()).add(i)
            for c2, d in dd_pairs:
                if c2 != c or d in (a, b, c):
                    continue
                for i, fo in enumerate(flows):
                    if (fo.src_ip, fo.dst_ip) == (a, b) and chains(i, (b, c, d)):
                        witnesses.setdefault(("TD3", a, d), set()).add(i)
    for (kind, src, dst), wits in witnesses.items():
        if len(wits) >= (cfg.n_t_rr if kind in ("RR", "RR3") else cfg.n_t_dd):
            records.append((kind, src, dst, len(wits)))
    return sorted(records)


def records_as_tuples(records) -> list[tuple]:
    return sorted((r.kind.value, r.src, r.dst, r.witness_count) for r in records)


# ---------------------------------------------------------------------------
# forest oracle: the fit path scanned one candidate feature at a time


def _reference_best_split(X, ys, idx, k, rng):
    """Per-feature scan of the ``k`` features with the smallest of one
    uniform key per feature: first strictly lower score wins, so ties go to
    the first candidate in (feature, position) order."""
    n = len(idx)
    n_pos = int(ys.sum())
    feats = np.sort(np.argpartition(rng.random(X.shape[1]), k - 1)[:k])
    best = None
    for f in feats:
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = ys[order]
        cut = np.nonzero(sv[1:] > sv[:-1])[0]
        if cut.size == 0:
            continue
        left_n = cut + 1
        right_n = n - left_n
        left_pos = np.cumsum(sy)[cut]
        right_pos = n_pos - left_pos
        pl = left_pos / left_n
        pr = right_pos / right_n
        weighted = (left_n * (1.0 - pl * pl - (1.0 - pl) ** 2)
                    + right_n * (1.0 - pr * pr - (1.0 - pr) ** 2)) / n
        i = int(np.argmin(weighted))
        score = float(weighted[i])
        if best is None or score < best[0]:
            lower, upper = sv[cut[i]], sv[cut[i] + 1]
            mid = (lower + upper) / 2.0
            best = (score, int(f), float(mid if mid < upper else lower))
    if best is None:
        return None
    return best[1], best[2]


def _reference_tree(X, y, idx, k, rng):
    nodes = []  # [feature, threshold, left, right, leaf_p] in DFS pre-order

    def build(idx):
        node = len(nodes)
        nodes.append([-1, 0.0, -1, -1, 0.0])
        ys = y[idx]
        n_node = len(idx)
        n_pos = int(ys.sum())
        pure = n_pos in (0, n_node)
        split = None if pure else _reference_best_split(X, ys, idx, k, rng)
        if split is None:
            nodes[node][4] = n_pos / n_node
            return node
        f, thr = split
        mask = X[idx, f] <= thr
        left = build(idx[mask])
        right = build(idx[~mask])
        nodes[node][:4] = [f, thr, left, right]
        return node

    build(np.asarray(idx))
    return _TreeNodes(*(tuple(column) for column in zip(*nodes)))


def reference_train_forest(X, y, cfg) -> ForestModel:
    """Rows sorted by the first feature, then the next, with the label last;
    one generator per (seed, tree) for the bootstrap draw and then the
    per-node feature draws."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=bool)
    order = np.lexsort([y.astype(float)] + [X[:, j] for j in range(X.shape[1] - 1, -1, -1)])
    X, y = X[order], y[order]
    dims = X.shape[1]
    k = math.ceil(math.sqrt(dims))
    n = len(y)
    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(derive_seed(cfg.rng_seed, f"tree:{t}"))
        idx = rng.integers(0, n, size=n)
        trees.append(_reference_tree(X, y, idx, k, rng))
    return ForestModel(dims, tuple(trees))


def reference_predict_proba(model, features) -> float:
    """Vote fraction, walking each tree on the numpy vector."""
    x = np.asarray(features, dtype=float)
    votes = 0
    for tree in model.trees:
        node = 0
        while tree.feature[node] >= 0:
            f = tree.feature[node]
            node = tree.left[node] if x[f] <= tree.threshold[node] else tree.right[node]
        votes += tree.leaf_p[node] >= 0.5
    return votes / len(model.trees)


# ---------------------------------------------------------------------------
# skip-gram trainer


def reference_train_embedding(pos_pairs, neg_pairs, vertices, cfg):
    """Plain per-pair SGD on the skip-gram objective: the target matrix, the
    context matrix and each epoch's mean loss.  The generator is drawn from
    as ``train_embedding`` draws from it: both initial matrices, then in each
    epoch one block of negative contexts and one permutation of the pairs.
    Each pair steps only its own two rows, from the parameters the pair
    before it left."""
    verts = sorted(set(vertices))
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    rng = np.random.default_rng(cfg.rng_seed)
    bound = 0.5 / cfg.dims
    target = rng.uniform(-bound, bound, size=(n, cfg.dims))
    context = rng.uniform(-bound, bound, size=(n, cfg.dims))
    given = [(index[h], index[c], 1) for h, c in pos_pairs] + \
        [(index[h], index[c], 0) for h, c in neg_pairs]
    if not given:
        return target, context, ()
    per_positive = cfg.neg_samples_per_positive if n > 1 else 0
    drawn_heads = [index[h] for h, _ in pos_pairs for _ in range(per_positive)]
    losses = []
    for _ in range(cfg.epochs):
        draws = [int(d) for d in rng.integers(0, n - 1, size=len(drawn_heads))]
        # a drawn context skips its head
        pairs = given + [(h, d + 1 if d >= h else d, 0) for h, d in zip(drawn_heads, draws)]
        total = 0.0
        for i in rng.permutation(len(pairs)):
            h, c, label = pairs[i]
            u_old = target[h].copy()
            score = sum(float(a) * float(b) for a, b in zip(u_old, context[c]))
            sig = 1.0 / (1.0 + math.exp(-min(max(score, -30.0), 30.0)))
            total += -math.log(sig if label else 1.0 - sig)
            g = sig - label
            target[h] -= cfg.learning_rate * g * context[c]
            context[c] -= cfg.learning_rate * g * u_old
        losses.append(total / len(pairs))
    return target, context, tuple(losses)


# ---------------------------------------------------------------------------
# metric oracles


def pairwise_auc(scores, labels) -> float:
    """P(score+ > score-) + P(tie)/2 by exhaustive pair comparison."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    numerator = 0
    for p in pos:
        for q in neg:
            if p > q:
                numerator += 2
            elif p == q:
                numerator += 1
    return numerator / (2 * len(pos) * len(neg))


def ap_reference(scores, labels) -> float:
    """Step-interpolated average precision over unique score levels."""
    n_pos = sum(1 for l in labels if l)
    levels = sorted(set(scores), reverse=True)
    ap = Fraction(0)
    tp = fp = 0
    for level in levels:
        gained = sum(1 for s, l in zip(scores, labels) if s == level and l)
        lost = sum(1 for s, l in zip(scores, labels) if s == level and not l)
        tp += gained
        fp += lost
        if gained:
            ap += Fraction(gained, n_pos) * Fraction(tp, tp + fp)
    return float(ap)


def reference_index_scores(edges, x, y) -> tuple[float, float, float, float]:
    """AA, CN, PA and RA of the ordered pair (x, y), straight from a list of
    directed ``(src, dst)`` edges that may repeat: no graph object, every
    neighbourhood and out-degree a scan of the list, and the sums taken over
    the common intermediates in sorted order."""
    successors = {dst for src, dst in edges if src == x}
    predecessors = {src for src, dst in edges if dst == y}
    aa = ra = 0.0
    for v in sorted(successors & predecessors):
        degree = len({dst for src, dst in edges if src == v})
        ra += 1.0 / degree
        if degree > 1:
            aa += 1.0 / math.log(degree)
    return aa, float(len(successors & predecessors)), float(len(successors) * len(predecessors)), ra


def spearman_reference(xs, ys) -> float | None:
    """Mid-rank Pearson with O(n^2) rank computation and integer sums."""
    def double_ranks(values):
        ranks = []
        for v in values:
            less = sum(1 for u in values if u < v)
            equal = sum(1 for u in values if u == v)
            ranks.append(2 * (less + 1) + (equal - 1))
        return ranks

    rx = double_ranks(list(xs))
    ry = double_ranks(list(ys))
    n = len(rx)
    sx = sum(rx)
    sy = sum(ry)
    sxx = sum(r * r for r in rx)
    syy = sum(r * r for r in ry)
    sxy = sum(a * b for a, b in zip(rx, ry))
    den_x = n * sxx - sx * sx
    den_y = n * syy - sy * sy
    if den_x == 0 or den_y == 0:
        return None
    num = n * sxy - sx * sy
    if num * num == den_x * den_y:
        return 1.0 if num > 0 else -1.0
    return num / (math.sqrt(den_x) * math.sqrt(den_y))


def kendall_reference(xs, ys) -> float | None:
    """Tau-b by exhaustive pair counting."""
    xs = list(xs)
    ys = list(ys)
    n = len(xs)
    conc = disc = ties_x = ties_y = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx == 0 or dy == 0:
                continue
            if (dx > 0) == (dy > 0):
                conc += 1
            else:
                disc += 1
    n0 = n * (n - 1) // 2
    if n0 == ties_x or n0 == ties_y:
        return None
    d1, d2 = n0 - ties_x, n0 - ties_y
    num = conc - disc
    if num * num == d1 * d2:
        return 1.0 if num > 0 else -1.0
    return num / math.sqrt(d1 * d2)


def reference_is_internal(addr: str, prefixes) -> bool:
    """Whether ``addr`` parses as an address inside one of the CIDR
    ``prefixes`` of its own IP version; a token that does not parse is
    external."""
    try:
        parsed = ip_address(addr)
    except ValueError:
        return False
    networks = [ip_network(p, strict=False) for p in prefixes]
    return any(parsed in net for net in networks if net.version == parsed.version)


# ---------------------------------------------------------------------------
# flow parser: every cell of every row goes through the checking helpers
# (``depwalk.flows`` decodes the common CSV row without them)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MS = timedelta(milliseconds=1)


def _parse_timestamp(token) -> int:
    """Integer milliseconds, or an RFC 3339 datetime converted to them."""
    if isinstance(token, int) and not isinstance(token, bool):
        return token
    text = str(token).strip()
    try:
        return int(text)
    except ValueError:
        pass
    iso = text[:-1] + "+00:00" if text.endswith(("Z", "z")) else text
    try:
        stamp = datetime.fromisoformat(iso)
    except ValueError:
        raise ValueError(f"invalid timestamp {token!r}") from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return (stamp - _EPOCH) // _MS


def _parse_address(token, canonical: dict[str, str]) -> str:
    """Canonical text of an address token; only valid tokens are memoised."""
    if (text := str(token)) not in canonical:
        try:
            address = ip_address(text.strip())
        except ValueError:
            raise ValueError(f"invalid IP address {token!r}") from None
        if getattr(address, "scope_id", None) is not None:
            raise ValueError(f"scoped IPv6 address {token!r}")
        canonical[text] = str(address)
    return canonical[text]


def _parse_port(token, name: str) -> int:
    try:
        port = int(token)
    except (TypeError, ValueError):
        raise ValueError(f"invalid {name} {token!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"{name} {port} out of range 0-65535")
    return port


def _check_interval(ts: int, te: int) -> None:
    if te < ts:
        raise ValueError(f"t_end {te} earlier than t_start {ts}")
    if ts < -2**63 or te >= 2**63 - 1:  # the oracle's int64 arrays keep int64 max as "never"
        raise ValueError(f"timestamps {ts}..{te} outside the signed 64-bit range")


def _make_flow(t_start, t_end, src, dst, src_port, dst_port, proto, canonical: dict[str, str]) -> FlowRecord | None:
    """Validated FlowRecord, or None for a dropped self-loop."""
    ts, te = _parse_timestamp(t_start), _parse_timestamp(t_end)
    _check_interval(ts, te)
    src_ip = _parse_address(src, canonical)
    dst_ip = _parse_address(dst, canonical)
    sp = _parse_port(src_port, "src_port")
    dp = _parse_port(dst_port, "dst_port")
    if src_ip == dst_ip:
        return None
    return FlowRecord(src_ip, dst_ip, sp, dp, Proto.from_token(str(proto)), ts, te)


_COUNT_COLUMNS = ("fwd_bytes", "rev_bytes", "fwd_packets", "rev_packets")


def _drop_counts(cells: list[str]) -> list[str]:
    """The seven flow cells of an 11-column biflow row, once its four
    byte/packet count cells are known to be integers."""
    if len(cells) != len(CSV_COLUMNS) + len(_COUNT_COLUMNS):
        raise ValueError(f"expected 7 or 11 columns, got {len(cells)}")
    for name, token in zip(_COUNT_COLUMNS, cells[len(CSV_COLUMNS):]):
        try:
            int(token)
        except ValueError:
            raise ValueError(f"invalid {name} {token!r}") from None
    return cells[:len(CSV_COLUMNS)]


def _json_flow(obj, canonical: dict[str, str]) -> FlowRecord | None:
    """:func:`_make_flow` of the ``CSV_COLUMNS`` fields of a JSON object.  A
    port may not be a float or a boolean, although ``int`` takes both."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    for name in ("src_port", "dst_port"):
        if isinstance(obj.get(name), (bool, float)):
            raise ValueError(f"invalid {name} {obj[name]!r}")
    try:
        return _make_flow(obj["t_start"], obj["t_end"], obj["src_ip"], obj["dst_ip"],
                          obj["src_port"], obj["dst_port"], obj["proto"], canonical)
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from None


def reference_parse_flows(lines: Iterable[str], biflows: bool = False) -> tuple[list[FlowRecord], ParseReport]:
    """Parse flow records from an iterable of text lines.

    The first line that is neither blank nor a CSV header sets the format:
    JSON lines when it starts with ``{``, CSV otherwise.  Invalid lines are
    collected in the report with their 1-based line number; valid records
    keep the input order.  A leading BOM and an optional CSV header line
    are skipped.  Each
    distinct address token is validated once per call: a valid
    one is memoised, an invalid one is reported on every line it appears on.
    With ``biflows`` every record is a bidirectional connection (split later
    by :func:`biflow_to_uniflows`) and a CSV row may carry four trailing
    byte/packet count columns, which must be integers and are then discarded.
    """
    canonical: dict[str, str] = {}
    flows: list[FlowRecord] = []
    report = ParseReport(errors=[])
    jsonl = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if lineno == 1:
            line = line.removeprefix("\ufeff")
        header = lineno == 1 and line.split(",", 1)[0].strip().lower() == "t_start"
        if header or not line.strip():
            continue
        if jsonl is None:
            jsonl = line.lstrip().startswith("{")
        try:
            if jsonl:
                flow = _json_flow(json.loads(line), canonical)
            else:
                cells = [c.strip() for c in line.split(",")]
                if len(cells) != len(CSV_COLUMNS):
                    if not biflows:
                        raise ValueError(f"expected {len(CSV_COLUMNS)} columns, got {len(cells)}")
                    cells = _drop_counts(cells)
                flow = _make_flow(*cells, canonical)
        except ValueError as exc:
            report.errors.append((lineno, str(exc)))
            continue
        if flow is None:
            report.dropped_self_loops += 1
        else:
            flows.append(flow)
    return flows, report


def reference_biflow_to_uniflows(biflow: FlowRecord, mode: SplitMode) -> tuple[FlowRecord, FlowRecord]:
    """A biflow record as its forward flow (itself) and its reverse flow:
    addresses and ports swapped, starting 1 ms later (but not after the
    end) in DISTINCT_TIMESTAMPS mode."""
    rev_start = biflow.t_start if mode is SplitMode.SAME_TIMESTAMPS else min(biflow.t_start + 1,
                                                                             biflow.t_end)
    return biflow, FlowRecord(biflow.dst_ip, biflow.src_ip, biflow.dst_port, biflow.src_port,
                              biflow.proto, rev_start, biflow.t_end)


# ---------------------------------------------------------------------------
# graph and walk files: one sort-keyed dict per line through the JSON encoder


def flow_to_dict(flow: FlowRecord) -> dict:
    return {**flow._asdict(), "proto": flow.proto.value}


def _reference_jsonl(path, vertices, objects) -> None:
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encode({"vertices": list(vertices)}) + "\n")
        fh.writelines(encode(obj) + "\n" for obj in objects)


def reference_write_graph_jsonl(graph, path) -> None:
    _reference_jsonl(path, graph.vertices, map(flow_to_dict, graph.all_edges()))


def reference_write_walks_jsonl(vertices, walks, path) -> None:
    _reference_jsonl(path, vertices, ({
        "label": walk.label.value,
        "vertices": list(walk.vertices),
        "condition_trace": [sorted(c.value for c in conds) for conds in walk.condition_trace],
        "step_edges": [flow_to_dict(e) for e in walk.step_edges],
    } for walk in walks))


# ---------------------------------------------------------------------------
# address selection and reservoir sampling over records


def reference_top_addresses(flows, cfg) -> set[str]:
    """The ``n_internal`` internal and ``m_external`` external addresses that
    appear in the most flows, ties to the smaller address, by sorting."""
    counts: dict[str, int] = {}
    for f in flows:
        for addr in (f.src_ip, f.dst_ip):
            counts[addr] = counts.get(addr, 0) + 1
    ranked = sorted(counts, key=lambda a: (-counts[a], a))
    internal = [a for a in ranked if reference_is_internal(a, cfg.internal_prefixes)]
    external = [a for a in ranked if not reference_is_internal(a, cfg.internal_prefixes)]
    return set(internal[:cfg.n_internal]) | set(external[:cfg.m_external])


def reference_reservoir_sample(flows, selected, cfg) -> list[FlowRecord]:
    """The flows one reservoir keeps: the first ``k_edges`` eligible flows,
    then the k-th eligible one replaces slot ``randrange(k)`` when that slot
    is below ``k_edges``."""
    rng = random.Random(cfg.rng_seed)
    reservoir: list[FlowRecord] = []
    seen = 0
    for f in flows:
        if f.src_ip not in selected or f.dst_ip not in selected:
            continue
        seen += 1
        if len(reservoir) < cfg.k_edges:
            reservoir.append(f)
        else:
            slot = rng.randrange(seen)
            if slot < cfg.k_edges:
                reservoir[slot] = f
    return reservoir
