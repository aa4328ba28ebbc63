"""Workflow graph visualisation: DOT export and ASCII rendering.

dispel4py users inspect abstract workflows before enactment; this module
renders a :class:`~repro.d4py.workflow.WorkflowGraph` as Graphviz DOT
(for tooling) or as a plain-text listing (for the CLI's ``show``
command), annotating edges with their ports and grouping policies.
"""

from __future__ import annotations

from repro.d4py.core import CompositePE
from repro.d4py.grouping import Grouping
from repro.d4py.workflow import WorkflowGraph

__all__ = ["to_dot", "to_text"]


def _edge_label(from_output: str, to_input: str, grouping: Grouping) -> str:
    label = f"{from_output}->{to_input}"
    if grouping.kind == "group_by":
        label += f" [group_by{list(grouping.keys)}]"
    elif grouping.kind != "shuffle":
        label += f" [{grouping.kind}]"
    return label


def to_dot(graph: WorkflowGraph, name: str = "workflow") -> str:
    """Render a graph as Graphviz DOT source."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=box];"]
    for pe in graph.pes:
        shape = "component" if isinstance(pe, CompositePE) else "box"
        kind = type(pe).__name__
        lines.append(f'  "{pe.name}" [shape={shape} label="{pe.name}\\n({kind})"];')
    for u, from_output, v, to_input, grouping in graph.edges():
        label = _edge_label(from_output, to_input, grouping)
        lines.append(f'  "{u.name}" -> "{v.name}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def to_text(graph: WorkflowGraph) -> str:
    """Render a graph as an indented text listing, in topological order."""
    lines = []
    roots = set(graph.roots())
    for pe in graph.pes:
        marker = "◆" if pe in roots else "▶"
        lines.append(f"{marker} {pe.name} ({type(pe).__name__})")
        for port in sorted(pe.outputconnections):
            dests = graph.successors(pe, port)
            if not dests:
                lines.append(f"    {port} ─▶ (workflow output)")
            for dest, to_input, grouping in dests:
                suffix = ""
                if grouping.kind == "group_by":
                    suffix = f"  [group_by{list(grouping.keys)}]"
                elif grouping.kind != "shuffle":
                    suffix = f"  [{grouping.kind}]"
                lines.append(f"    {port} ─▶ {dest.name}.{to_input}{suffix}")
    return "\n".join(lines)
