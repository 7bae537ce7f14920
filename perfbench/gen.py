"""Generated .sdf workload families whose verdicts are known by construction.

Each family grows one axis and returns `Program`s.  Every generated program
is well typed, deterministic and schedulable, so the checker must accept it
(`expect == "accept"`); a rejection or a crash is a checker defect.  Run-time
rates are symbolic (`size s`), so a family's check cost depends only on the
axis it grows:

    pipeline(n)     n actors chained by n-1 `Channel(0, 2)` links  (actor count)
    long_actor(k)   one actor of k straight-line sends            (statements)
    actor_array(w)  a distributor feeding w literal workers      (array width)
    nested_loops(p) a p x p literal double loop                   (iterations)
    deep_parens(d)  one payload wrapped in d parentheses          (nesting)

`pipeline` is also the network the run benchmarks instantiate at rate `s`;
`pipeline_comms(n, s)` is its exact communication count.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Program:
    name: str        # family and axis value, e.g. "pipeline-400"
    family: str
    axis: int
    source: str
    expect: str = "accept"


def pipeline(n: int) -> Program:
    """n-stage pipeline: a source, n-2 forwarding stages and a sink, each
    communicating `s` times per firing."""
    if n < 2:
        raise ValueError("a pipeline needs at least two stages")
    links = range(1, n)
    decls = ["size s : Size(inf);"]
    decls += [f"chan c{k} : Channel(0, 2);" for k in links]
    decls.append("val sz : Size(s);")
    for k in links:
        decls.append(f"val w{k} : Chan(-, c{k}, Integer);")
        decls.append(f"val r{k} : Chan(+, c{k}, Integer);")
    flows = [f"c1!<t in 1..s>"]
    flows += [f"c{k}?<t in 1..s> ; c{k + 1}!<t in 1..s>" for k in range(1, n - 1)]
    flows.append(f"c{n - 1}?<t in 1..s>")
    actors = ["actor { for (t, x in 1..sz) send w1 fromIndex(x) }"]
    actors += [f"actor {{ for (t, x in 1..sz) {{ let v = recv r{k}; "
               f"send w{k + 1} v }} }}" for k in range(1, n - 1)]
    actors.append(f"actor {{ for (t, x in 1..sz) recv r{n - 1} }}")
    source = (f"// {n}-stage pipeline\n" + "\n".join(decls) + "\n"
              + "flow " + "\n  || ".join(flows) + ";\n\n"
              + "network {\n  " + "\n  || ".join(actors) + "\n}\n")
    return Program(f"pipeline-{n}", "pipeline", n, source)


def pipeline_comms(n: int, s: int) -> int:
    """Sends plus receives of one firing of `pipeline(n)` at rate s."""
    return 2 * s * (n - 1)


def long_actor(k: int) -> Program:
    """A producer of k straight-line sends feeding a looping consumer."""
    sends = "; ".join(f"send cw {i}" for i in range(1, k + 1))
    source = (f"// straight-line actor of {k} sends\n"
              "chan c : Channel(0, 2);\n"
              f"val kk : Size({k});\n"
              "val cw : Chan(-, c, Integer);\n"
              "val cr : Chan(+, c, Integer);\n"
              f"flow c!<t in 1..{k}> || c?<t in 1..{k}>;\n\n"
              "network {\n"
              f"  actor {{ {sends} }}\n"
              "  || actor { for (t, x in 1..kk) recv cr }\n"
              "}\n")
    return Program(f"long_actor-{k}", "long_actor", k, source)


def actor_array(w: int) -> Program:
    """A distributor feeding an array of w workers, w literal."""
    source = (f"// distributor and {w} workers\n"
              f"chanarray a : ChannelArray(0, 1, {w});\n"
              f"val sz : Size({w});\n"
              f"val dist : ChanArray(-, a, Integer, {w});\n"
              f"val wrk : ChanArray(+, a, Integer, {w});\n"
              f"flow a[t]!<t in 1..{w}> || [ a[t]? | t in 1..{w} ];\n\n"
              "network {\n"
              "  actor { for (t, x in 1..sz) send dist[x] fromIndex(x) }\n"
              f"  || actors (t, x in 1..{w}) {{ recv wrk[x] }}\n"
              "}\n")
    return Program(f"actor_array-{w}", "actor_array", w, source)


def nested_loops(p: int) -> Program:
    """A p x p double loop of sends against a single loop of p*p receives,
    both bounds literal."""
    source = (f"// {p} x {p} nested loops\n"
              "chan c : Channel(0, 2);\n"
              f"val pp : Size({p});\n"
              f"val pq : Size({p * p});\n"
              "val cw : Chan(-, c, Integer);\n"
              "val cr : Chan(+, c, Integer);\n"
              f"flow c!<v in 1..{p * p}> || c?<v in 1..{p * p}>;\n\n"
              "network {\n"
              "  actor { for (t, x in 1..pp) { for (u, y in 1..pp) "
              "send cw (fromIndex(x) + fromIndex(y)) } }\n"
              "  || actor { for (v, z in 1..pq) recv cr }\n"
              "}\n")
    return Program(f"nested_loops-{p}", "nested_loops", p, source)


def deep_parens(d: int) -> Program:
    """One send whose payload sits inside d pairs of parentheses."""
    payload = "(" * d + "1" + ")" * d
    source = (f"// payload nested in {d} parentheses\n"
              "chan c : Channel(0, 2);\n"
              "val cw : Chan(-, c, Integer);\n"
              "val cr : Chan(+, c, Integer);\n"
              "flow c! || c?;\n\n"
              "network {\n"
              f"  actor {{ send cw {payload} }}\n"
              "  || actor { recv cr }\n"
              "}\n")
    return Program(f"deep_parens-{d}", "deep_parens", d, source)


FAMILIES = {
    "pipeline": pipeline,
    "long_actor": long_actor,
    "actor_array": actor_array,
    "nested_loops": nested_loops,
    "deep_parens": deep_parens,
}
