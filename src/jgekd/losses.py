"""Joint-graph distillation losses.

A probability vector p induces the rank-one joint graph A = outer(p, p) whose
(i, j) entry is the joint probability of classes i and j. Training penalizes
the entrywise cross entropy between a predicted graph and a target graph,
averaged over all N*N positions:

    loss = (1/N^2) * sum(-A_pred * log(clamp(A_target)))

The self-distillation variant compares the graphs of a sample and its
corrupted twin through shared weights; the teacher variant compares the
cross graph of the two student branches against the graph spanned by the
smoothed label and a frozen teacher's prediction. All functions accept plain
arrays or graph Nodes and return Nodes, so they can sit inside a training
graph or be evaluated standalone via .value.

Every loss also takes a (B, N) stack of rows wherever it takes a vector, and
then returns B losses, one per row, each bit for bit the loss of that row on
its own: the row sums run over the same contiguous entries, and the graph
products are 1-row matmuls, which round like the vector ones.

A deliberate asymmetry: the predicted graph multiplies the log of the target
graph, so the corrupted branch (self variant) and the teacher graph always
sit inside the log. Swapping the roles looks tempting but changes the
optimization target; the direction here is the one trained against.
"""

from __future__ import annotations

import numpy as np

from . import numerics as ng
from .numerics import LOG_FLOOR, Node, ShapeError


def _as_node(x) -> Node:
    if isinstance(x, Node):
        return x
    return ng.leaf(x)


def _vectors(op_name, *xs) -> tuple[Node, ...]:
    """Each input as a Node; all must be probability vectors of one length,
    or (B, N) stacks of them of one shape."""
    nodes = tuple(_as_node(x) for x in xs)
    first = nodes[0].value.shape
    for node in nodes:
        shape = node.value.shape
        if len(shape) not in (1, 2) or 0 in shape:
            raise ShapeError("%s: expected a probability vector or rows of them, got shape %s" % (op_name, shape))
        if shape != first:
            raise ShapeError("%s: vectors disagree, %s vs %s" % (op_name, first, shape))
    return nodes


def joint_graph(p) -> Node:
    """A = outer(p, p); symmetric, rank one, entries sum to 1 for valid p.
    Rows (B, N) give B graphs, (B, N, N)."""
    (node,) = _vectors("joint_graph", p)
    return ng.outer(node, node)


def cross_joint_graph(p, p_other) -> Node:
    """A[i, j] = p[i] * p_other[j]; couples the two siamese branches."""
    na, nb = _vectors("cross_joint_graph", p, p_other)
    return ng.outer(na, nb)


def smooth_labels(q, epsilon: float) -> np.ndarray:
    """Spread epsilon of a one-hot label uniformly over the other classes.
    q is one label or a (B, N) stack of them, smoothed row by row."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim not in (1, 2) or q.shape[-1] < 2 or q.size == 0:
        raise ValueError("smooth_labels: need one-hot vectors of length >= 2")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("smooth_labels: epsilon must be in [0, 1), got %r" % epsilon)
    ones = q == 1.0
    if not (np.all(ones.sum(axis=-1) == 1) and np.all((q == 0.0) | ones)):
        raise ValueError("smooth_labels: q is not one-hot")
    out = np.full(q.shape, epsilon / (q.shape[-1] - 1))
    out[ones] = 1.0 - epsilon
    return out


def _as_graph_node(a, op_name) -> Node:
    """A square joint graph (N, N), or a (B, N, N) stack of them."""
    node = _as_node(a)
    v = node.value
    if v.ndim not in (2, 3) or v.shape[-2] != v.shape[-1] or 0 in v.shape:
        raise ShapeError("%s: expected a square joint graph, got shape %s" % (op_name, v.shape))
    return node


def joint_graph_entropy(a_pred, a_target) -> Node:
    """Entrywise -A_pred * log(A_target), target clamped into [1e-12, 1]."""
    pred = _as_graph_node(a_pred, "joint_graph_entropy")
    target = _as_graph_node(a_target, "joint_graph_entropy")
    if pred.value.shape != target.value.shape:
        raise ShapeError(
            "joint_graph_entropy: graphs disagree, %s vs %s"
            % (pred.value.shape, target.value.shape)
        )
    return ng.scale(ng.mul(pred, ng.log_clamped(target, LOG_FLOOR, 1.0)), -1.0)


def jgekd_loss(a_pred, a_target) -> Node:
    """Mean of joint_graph_entropy over all N*N positions, one per graph of
    a (B, N, N) stack."""
    entropy = joint_graph_entropy(a_pred, a_target)
    n = entropy.value.shape[-1]
    return ng.scale(ng.reduce_sum(entropy, axis=(-2, -1)), 1.0 / (n * n))


def jgeskd_loss(p, p_prime, detach_target: bool = False) -> Node:
    """Self-distillation between a sample and its corrupted twin.

    By default the gradient flows through both branches (true siamese);
    detach_target freezes the log-side branch at its current value.
    """
    np_, npp = _vectors("jgeskd_loss", p, p_prime)
    target = ng.detach(npp) if detach_target else npp
    return jgekd_loss(joint_graph(np_), joint_graph(target))


def jgetkd_loss(p_student, p_student_prime, q, p_teacher, epsilon: float = 0.1) -> Node:
    """Teacher distillation on the cross graph of the two student branches.

    The target graph spans the smoothed label and the teacher prediction;
    both enter as constants, so gradients reach only the student branches.
    """
    q_smooth = smooth_labels(q, epsilon)
    pt = p_teacher.value if isinstance(p_teacher, Node) else p_teacher
    ps, psp, q_node, pt_node = _vectors("jgetkd_loss", p_student, p_student_prime, q_smooth, pt)
    return jgekd_loss(cross_joint_graph(ps, psp), cross_joint_graph(q_node, pt_node))


def cross_entropy_smoothed(p, q, epsilon: float = 0.0) -> Node:
    """-sum(q_smooth * log(p)) with the usual positive clamp inside the log."""
    node, q_node = _vectors("cross_entropy_smoothed", p, smooth_labels(q, epsilon))
    return ng.scale(ng.reduce_sum(ng.mul(q_node, ng.log_clamped(node)), axis=-1), -1.0)


def vanilla_kd_loss(p_student, p_teacher) -> Node:
    """Plain distillation baseline: -sum(p_teacher * log(p_student))."""
    ps, pt = _vectors("vanilla_kd_loss", p_student, p_teacher)
    return ng.scale(ng.reduce_sum(ng.mul(ng.detach(pt), ng.log_clamped(ps)), axis=-1), -1.0)


def total_loss(ce, kd, alpha: float = 1.0, beta: float = 1.0) -> Node:
    """alpha * ce + beta * kd, the combined training objective, for two
    scalars or two (B,) rows of per-sample terms."""
    if alpha < 0.0 or beta < 0.0:
        raise ValueError("total_loss: coefficients must be nonnegative, got %r, %r" % (alpha, beta))
    ce_node = _as_node(ce)
    kd_node = _as_node(kd)
    if ce_node.value.ndim > 1 or ce_node.value.shape != kd_node.value.shape:
        raise ShapeError(
            "total_loss: need two scalars or two matching rows, got %s and %s"
            % (ce_node.value.shape, kd_node.value.shape)
        )
    return ng.add(ng.scale(ce_node, alpha), ng.scale(kd_node, beta))
