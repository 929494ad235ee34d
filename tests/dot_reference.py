"""Test-side reference for ``presentation.to_dot``: the DOT text written
line by line, one f-string per generator and one per relation.  The
exporter writes each run of generators of one arm count through a single
template and each relation from two pieces written once per generator
index; the tests compare its bytes with these."""


def to_dot_by_lines(pres) -> str:
    lines = [f"graph strands_{pres.n} {{"]
    for i, g in enumerate(pres.generators):
        label = f"s{g.star} a=({','.join(map(str, g.a))}) p={g.p}"
        lines.append(f'  g{i} [label="{label}"];')
    for i, j in pres.relations:
        lines.append(f"  g{i} -- g{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
