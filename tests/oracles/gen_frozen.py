"""Independent oracles for values frozen into the test suite.

Every computation here is written from first principles (brute-force
enumeration or direct arithmetic), deliberately avoiding the package's own
code paths.  Run it to regenerate the literals pinned in tests/.
"""

import math
from itertools import permutations, product


def h(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


# --- piecewise linear-demand cost -----------------------------------------
# independent formulation: Nr * min(Kc, Delta) while Kc <= Delta*Nr,
# afterwards min(Kc, K)
def linear_cost(n, k, nr, kc):
    delta = k // n
    if kc <= delta * nr:
        return nr * min(kc, delta)
    return min(kc, k)


instances = []
for n in (2, 3, 4, 5, 6):
    for delta in (1, 2, 3):
        k = delta * n
        for nr in range(1, n + 1):
            for kc in range(1, k + 3):
                instances.append((n, k, nr, kc))
instances = instances[:50]
print("PROP1_CASES = [")
for n, k, nr, kc in instances:
    print(f"    ({n}, {k}, {nr}, {kc}, {linear_cost(n, k, nr, kc)}),")
print("]")

# --- OR-square of the one-edge ternary graph ------------------------------
# vertices 0,1,2 with the single edge (0,2); square on ordered pairs,
# adjacency iff some coordinate carries the edge
edge = {(0, 2), (2, 0)}
verts = list(product(range(3), repeat=2))
sq_edges = []
for a in range(9):
    for b in range(a + 1, 9):
        u, v = verts[a], verts[b]
        if (u[0], v[0]) in edge or (u[1], v[1]) in edge:
            sq_edges.append((a, b))
print("\nTERNARY_SQUARE_EDGE_COUNT =", len(sq_edges))

# exhaustive minimum color count with pruning
adj = [set() for _ in range(9)]
for a, b in sq_edges:
    adj[a].add(b)
    adj[b].add(a)


def min_colors(best=9):
    colors = [-1] * 9

    def dfs(v, used):
        nonlocal best
        if used >= best:
            return
        if v == 9:
            best = used
            return
        for c in range(min(used + 1, best)):
            if all(colors[w] != c for w in adj[v]):
                colors[v] = c
                dfs(v + 1, max(used, c + 1))
                colors[v] = -1

    dfs(0, 0)
    return best


print("TERNARY_SQUARE_MIN_COLORS =", min_colors())

# --- chromatic entropy by exhaustive partition enumeration ----------------
def chromatic_oracle(n, edges, pmf):
    adjacency = [set() for _ in range(n)]
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    best = math.inf

    def partitions(v, classes):
        nonlocal best
        if v == n:
            ent = 0.0
            for cls in classes:
                m = sum(pmf[x] for x in cls)
                if m > 0:
                    ent -= m * math.log2(m)
            best = min(best, ent)
            return
        for cls in classes:
            if not any(w in adjacency[v] for w in cls):
                cls.append(v)
                partitions(v + 1, classes)
                cls.pop()
        classes.append([v])
        partitions(v + 1, classes)
        classes.pop()

    partitions(0, [])
    return best


print("\nCHROMATIC_TERNARY_UNIFORM = %.15f"
      % chromatic_oracle(3, [(0, 2)], [1 / 3, 1 / 3, 1 / 3]))
print("CHROMATIC_TERNARY_SKEWED = %.15f"
      % chromatic_oracle(3, [(0, 2)], [0.5, 0.3, 0.2]))
print("CHROMATIC_C5 = %.15f"
      % chromatic_oracle(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
                         [0.1, 0.15, 0.2, 0.25, 0.3]))

# --- mixture-law entropies and window parities by 2^K enumeration ---------
def mixture_mass(vec, eps, rho):
    iid = 1.0
    for b in vec:
        iid *= eps if b else (1 - eps)
    m = (1 - rho) * iid
    if all(b == 1 for b in vec):
        m += rho * eps
    if all(b == 0 for b in vec):
        m += rho * (1 - eps)
    return m


def mixture_entropy(k, eps, rho):
    ent = 0.0
    for vec in product((0, 1), repeat=k):
        m = mixture_mass(vec, eps, rho)
        if m > 0:
            ent -= m * math.log2(m)
    return ent


def mixture_parity(l, eps, rho):
    return sum(
        mixture_mass(vec, eps, rho)
        for vec in product((0, 1), repeat=l)
        if sum(vec) % 2 == 1
    )


print("\nMIXTURE_ENTROPY = {")
for k, eps, rho in [(3, 0.3, 0.4), (5, 0.2, 0.7), (4, 0.5, 0.0), (6, 0.1, 1.0)]:
    print(f"    ({k}, {eps}, {rho}): %.15f," % mixture_entropy(k, eps, rho))
print("}")
print("MIXTURE_PARITY = {")
for l, eps, rho in [(1, 0.3, 0.5), (2, 0.3, 0.5), (3, 0.2, 0.25), (4, 0.4, 0.9), (5, 0.2, 0.0)]:
    print(f"    ({l}, {eps}, {rho}): %.15f," % mixture_parity(l, eps, rho))
print("}")

# --- product-demand closed form, written out stage by stage ---------------
em = 0.5**2
val = h(em) + em * h(em) + em**2 * h(0.5)
print("\nPROP3_5_5_4_HALF = %.15f" % val)

# --- independent-pair gain at extreme skew --------------------------------
e = 1e-6
print("ETA_LIN_TINY_EPS = %.15f" % ((h(e) + h(2 * e * (1 - e))) / (2 * h(e))))


# --- ordered chain over every ordering, by whole transcripts ---------------
# i.i.d. Bern(eps) bits on the full cube, cyclic zones of N - Nr + 1 bits. A
# stage vertex is (local tuple, whole earlier transcript); two are joined iff
# a point of each shares the transcript and the other bits but not the
# demanded output. Each component must be complete multipartite: it costs
# sum m log2(M / m) over its parts (mass m, component mass M), and a vertex
# sends its part's number, smaller part first, ties by the smallest local
# tuple. No section is ever dropped: one whose points all demand one output
# has lone vertices only, which cost 0.
def chain_stage(points, zone, transcripts):
    vertex = [(tuple(w[c] for c in zone), t) for (w, _, _), t in zip(points, transcripts)]
    rest = [(tuple(b for c, b in enumerate(w) if c not in zone), t)
            for (w, _, _), t in zip(points, transcripts)]
    mass, adj = {}, {}
    for v, (_, m, _) in zip(vertex, points):
        mass[v] = mass.get(v, 0.0) + m
        adj.setdefault(v, set())
    for a in range(len(points)):
        for b in range(a):
            if rest[a] == rest[b] and points[a][2] != points[b][2]:
                adj[vertex[a]].add(vertex[b])
                adj[vertex[b]].add(vertex[a])
    color, cost, seen = {}, 0.0, set()
    for start in mass:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        for v in comp:  # grows while it is walked
            for u in adj[v] - seen:
                seen.add(u)
                comp.append(u)
        parts = {}
        for v in comp:  # a part is a set of non-adjacent twins
            parts.setdefault(frozenset(adj[v]), []).append(v)
        for u in comp:
            for v in comp:
                if (v in adj[u]) != (frozenset(adj[u]) != frozenset(adj[v])):
                    raise ValueError(f"component of {start} is not complete multipartite")
        total = sum(mass[v] for v in comp)
        ordered = sorted(parts.values(), key=lambda part: (len(part), min(part)))
        for c, part in enumerate(ordered):
            m = sum(mass[v] for v in part)
            cost += m * math.log2(total / m)
            color.update(dict.fromkeys(part, c))
    return cost, [t + (color[v],) for v, t in zip(vertex, transcripts)]


def chain_oracle(demand, n, nr, eps):
    points = [(w, eps ** sum(w) * (1 - eps) ** (n - sum(w)), demand(w))
              for w in product((0, 1), repeat=n)]
    zones = [sorted((i + s) % n for s in range(n - nr + 1)) for i in range(n)]
    sums = []
    for order in permutations(range(1, nr + 1)):
        transcripts, costs = [()] * len(points), []
        for server in order:
            cost, transcripts = chain_stage(points, zones[server - 1], transcripts)
            costs.append(cost)
        decoded = {}
        for t, (_, _, o) in zip(transcripts, points):
            if decoded.setdefault(t, o) != o:
                break
        else:
            sums.append((math.fsum(costs), list(order)))
    least = min(s for s, _ in sums)
    return next((s, o) for s, o in sums if s <= least * (1 + 1e-12))


print("\nFROZEN_CHAIN = {")
for name, n, nr, eps in [("parity", 5, 4, 0.1), ("parity", 5, 4, 0.3),
                         ("and", 6, 5, 0.1), ("and", 6, 5, 0.3)]:
    demand = (lambda w: sum(w) % 2) if name == "parity" else (lambda w: min(w))
    print(f"    {(name, n, nr, eps)!r}: {chain_oracle(demand, n, nr, eps)!r},")
print("}")
