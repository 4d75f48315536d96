"""Finding a positive definite combination of symmetric matrices.

Here the constraint set is infinite: every unit vector v contributes the
constraint v^T (sum_i y_i A_i) v > 0.  The separation oracle makes one
symmetric eigendecomposition of the combination per call: a smallest
eigenvalue above 1e-12 times the largest diagonal entry certifies it,
and otherwise that eigenvalue's unit eigenvector is the most violated
direction v.
"""

import numpy as np

from prfeas import Sdp, main_algorithm, verify_d_solution

# y_1 A_1 + y_2 A_2 with a positive definite combination at y = (2, 1).
mats = np.array([
    [[1.0, 0.0],
     [0.0, -0.4]],
    [[0.0, 0.3],
     [0.3, 1.0]],
])
inst = Sdp(mats)
out = main_algorithm(inst, epsilon=1e-6)
print("two-matrix pencil:", out.status)
print("  y =", out.y)
X = np.tensordot(out.y, mats, axes=(0, 0))
print("  eigenvalues of the combination:", np.linalg.eigvalsh(X))

# The verifier recomputes the smallest eigenvalue independently.
print("  verified:", verify_d_solution(inst, out.y).accepted)

# Swapping signs between two diagonal matrices makes a definite
# combination impossible; rank-one witnesses e_1 e_1^T and e_2 e_2^T
# certify it by combining to the zero functional.
mirror = Sdp(np.array([
    [[1.0, 0.0], [0.0, -1.0]],
    [[-1.0, 0.0], [0.0, 1.0]],
]))
out = main_algorithm(mirror, epsilon=1e-6)
print("mirrored pencil:", out.status)
if out.weights is not None:
    for witness, x in out.weights:
        print(f"  witness v = {witness.v} with weight {x}")
