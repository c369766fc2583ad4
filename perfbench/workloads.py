"""The four benchmark workloads.

Each workload is built from a namespace of freshly imported psf
modules, a seed and a scratch directory inside the checkout.
``inputs(p)`` returns the items of pass ``p`` (prepared outside the
timed region) and ``run(x, span)`` performs one item and returns
``(ok, output, info)``: ``ok`` is the item's exactness gate, ``output``
the bytes the run digest covers, and ``info`` optional numbers about
the item.  Library functions are always looked up through their module
at call time, so the tracer's wrappers are seen.

Inputs never depend on anything but the seed and the pass number.
"""

from __future__ import annotations

import contextlib
import io
import json
import random


def _tree_depth(tree) -> int:
    depth = [0] * len(tree.steps)
    for i, node in enumerate(tree.steps):
        depth[i] = 1 + max((depth[c] for c in node.children), default=0)
    return depth[tree.root]


def _relabel(k, rng: random.Random):
    """Seeded injective relabelling onto a label range twice the vertex count."""
    labels = sorted(k.vertices)
    mapping = dict(zip(labels, rng.sample(range(2 * len(labels)), len(labels))))
    return k.relabel(mapping), mapping


class Construct:
    """Criterion 2: ``random_script(seed, max_ops=12)`` then ``replay``.

    An item is one script from each of the four families (vertex-fold
    arms, edge-fold arms, handle chains, plain sums and subdivisions),
    generated and replayed in turn.  Single scripts would put the median
    exactly between the two fast and the two slow families, where it
    jumps.  Every pass draws 12 items of fresh script seeds, so no script
    repeats in a run.  The family is the first draw of the script's
    SplitMix64 stream, as in ``random_script``.
    """

    ITEMS_PER_PASS = 12
    CHECKED_OPS = ("connected_sum", "vertex_fold", "edge_fold", "handle_addition")
    repeats = False

    def __init__(self, lib, seed: int, workdir):
        self.lib = lib
        self.seed = seed
        self.first = self.inputs(0)

    def inputs(self, p: int) -> list[tuple[int, ...]]:
        rng = random.Random(f"construct:{self.seed}:{p}")
        families: list[list[int]] = [[], [], [], []]
        while any(len(f) < self.ITEMS_PER_PASS for f in families):
            s = rng.getrandbits(31)
            family = families[self.lib.build.SplitMix64(s).randrange(4)]
            if len(family) < self.ITEMS_PER_PASS:
                family.append(s)
        return list(zip(*families))

    def run(self, script_seeds: tuple[int, ...], span):
        bs = self.lib.buildscript
        ok, out, ops = True, [], set()
        for s in script_seeds:
            doc = bs.random_script(s, max_ops=12)
            result = bs.replay(doc)
            ok &= result.ledger_ok
            ops |= {row.op for row in result.ledger if row.checked}
            out.append(bs.dump_script(doc))
        return ok, "".join(out).encode(), {"ops": ops}

    def pass_ok(self, infos: list[dict]) -> bool:
        """Every checked operation kind occurs somewhere in the pass.

        This gate is per pass, not per item: a handle-chain script keeps
        going without a handle when ``random_script`` finds no admissible
        one, so a single item may rightly lack ``handle_addition``.
        """
        seen = set().union(*(info["ops"] for info in infos))
        return all(op in seen for op in self.CHECKED_OPS)


class Roundtrip:
    """Criterion 4: parse, classify, decompose, tree JSON, rebuild, isomorphism.

    Set-up builds a fixed mixed corpus and stores each complex as facet
    text.  Every pass runs the same corpus, so outputs must repeat
    exactly and a cache that outlives one call can help here.
    """

    repeats = True

    def __init__(self, lib, seed: int, workdir):
        self.lib = lib
        corpus, D = lib.corpus, lib.decompose
        rng = random.Random(f"roundtrip:{seed}")
        recipes = (
            [(corpus.vertex_folded_instance, dict(folds=1, sums=i % 3, subdivisions=i % 2),
              D.MODE_ONE) for i in range(5)]
            + [(corpus.vertex_folded_instance, dict(folds=2, sums=i % 2), D.MODE_ONE)
               for i in range(3)]
            + [(corpus.edge_folded_instance, dict(edge_folds=1, sums=i % 3, subdivisions=i % 2),
                D.MODE_EDGE) for i in range(5)]
            + [(corpus.edge_folded_instance, dict(edge_folds=1, vertex_folds=1, sums=i % 2),
                D.MODE_EDGE) for i in range(3)]
            + [(corpus.suspension_instance,
                dict(extra_vertex_folds=i % 2, sums=i % 2, subdivisions=i // 2),
                D.MODE_SUSPENSION) for i in range(4)]
        )
        self.items = []
        for make, kwargs, mode in recipes:
            record = make(rng.getrandbits(31), **kwargs)
            k = record.complex
            relabelled, _ = _relabel(k, rng)
            self.items.append({
                "text": lib.fileio.format_complex(k),
                "record": record,
                "mode": mode,
                "relabelled": relabelled,
            })
        self.first = self.items

    def inputs(self, p: int) -> list[dict]:
        return self.items

    def run(self, x: dict, span):
        lib, record = self.lib, x["record"]
        D = lib.decompose
        k = lib.fileio.parse_complex(x["text"])
        ok = k == record.complex
        for expected, tau in record.fold_images:
            ok &= lib.separation.classify_missing_facet(k, tau).kind == expected
        for joint in record.sum_joints:
            ok &= lib.separation.classify_missing_facet(k, joint).kind == "connected_sum_split"
        tree = D.decompose(k, record.tracked, mode=x["mode"])
        ok &= tree.vertex_fold_count == record.vertex_folds
        ok &= tree.edge_fold_count == record.edge_folds
        with span("decompose.tree_json"):
            doc = tree.to_dict()
            text = json.dumps(doc, sort_keys=True)
            back = D.DecompositionTree.from_dict(json.loads(text))
        ok &= back.to_dict() == doc
        ok &= D.rebuild(back) == k
        mapping = lib.complexes.is_isomorphic(k, x["relabelled"])
        ok &= mapping is not None and k.relabel(mapping) == x["relabelled"]
        info = {"tree_nodes": len(tree.steps), "tree_depth": _tree_depth(tree)}
        return ok, text.encode(), info


class Chain:
    """Split-only decomposition of stacked chains at growing size.

    Each pass runs ``decompose`` and ``rebuild`` on
    ``linear_chain(4, n, s, fixed=(0,))`` for n = 25, 50 and 100, with
    chain seeds fresh in every pass.  The natural labels are kept: they
    decide which missing facet the engine splits first, and so the depth
    of the tree.
    """

    SIZES = (25, 50, 100)
    repeats = False

    def __init__(self, lib, seed: int, workdir):
        self.lib = lib
        self.seed = seed
        self.first = self.inputs(0)

    def inputs(self, p: int) -> list[tuple[int, object]]:
        rng = random.Random(f"chain:{self.seed}:{p}")
        return [(n, self.lib.corpus.linear_chain(4, n, rng.getrandbits(31), fixed=(0,)))
                for n in self.SIZES]

    def run(self, x, span):
        n, k = x
        D = self.lib.decompose
        tree = D.decompose(k, 0, mode=D.MODE_ONE)
        with span("decompose.tree_json"):
            text = json.dumps(tree.to_dict(), sort_keys=True)
        ok = D.rebuild(tree) == k
        info = {"n": n, "tree_nodes": len(tree.steps), "tree_depth": _tree_depth(tree)}
        return ok, text.encode(), info


class Inspect:
    """The one-shot user path: ``psf info`` and ``psf check --strict`` in-process.

    Set-up builds decorated vertex-, edge- and suspension-folded
    instances, handle manifolds and stacked spheres and writes their
    facet files.  Later passes write seeded relabellings of them, so no
    complex is inspected twice in a run.
    """

    repeats = False

    def __init__(self, lib, seed: int, workdir):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        corpus = lib.corpus
        rng = random.Random(f"inspect:{seed}")
        made = []
        for i in range(3):
            made.append(corpus.vertex_folded_instance(
                rng.getrandbits(31), folds=1 + i // 2, sums=1, subdivisions=1 - i // 2))
        for i in range(3):
            made.append(corpus.edge_folded_instance(
                rng.getrandbits(31), edge_folds=1, vertex_folds=i // 2, sums=1,
                subdivisions=1 - i // 2))
        for i in range(2):
            made.append(corpus.suspension_instance(
                rng.getrandbits(31), extra_vertex_folds=i, sums=1, subdivisions=1))
        self.bases = [(r.complex, {r.tracked, r.companion} - {None}) for r in made]
        for _ in range(2):
            self.bases.append((corpus.handle_instance(rng.getrandbits(31)).complex, set()))
        for i in range(2):
            sphere = lib.build.stacked_sphere(4, 12 + 4 * i, rng.getrandbits(31))
            self.bases.append((sphere, set()))
        self.first = self.inputs(0)

    def inputs(self, p: int) -> list[tuple[str, str]]:
        rng = random.Random(f"inspect:{self.seed}:{p}")
        out = []
        for i, (k, singular) in enumerate(self.bases):
            if p:
                k, mapping = _relabel(k, rng)
                singular = {mapping[v] for v in singular}
            path = self.workdir / f"inspect-{i}.facets"
            path.write_text(self.lib.fileio.format_complex(k))
            expected = "singular: " + (" ".join(map(str, sorted(singular))) or "none")
            out.append((str(path), expected))
        return out

    def run(self, x, span):
        path, expected = x
        main = self.lib.cli.main
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes = (main(["info", path]), main(["check", "--strict", path]))
        out = buf.getvalue()
        singular = [line for line in out.splitlines() if line.startswith("singular:")]
        ok = codes == (0, 0) and singular == [expected, expected]
        return ok, out.encode(), {}


WORKLOADS = {
    "construct": Construct,
    "roundtrip": Roundtrip,
    "chain": Chain,
    "inspect": Inspect,
}
