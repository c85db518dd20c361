"""RBF-SVM training with SMO, one-vs-one voting, and grid search.

Starts from the classic XOR instance no linear separator can solve,
then trains a ten-class ensemble and lets cross-validation pick the
hyper-parameters.
"""

import numpy as np

from gesturelab import (
    KernelParams,
    classify,
    decision_table,
    grid_search,
    train_multiclass,
)

# XOR: four points, opposite corners share a label.  The RBF kernel
# bends the geometry enough for a soft-margin machine to separate them.
# Two classes make one pair; a decision value >= 0 votes for class 0.
X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
y = np.array([0, 0, 1, 1])
model = train_multiclass(X, y, KernelParams(c=1000.0, gamma=1.0))
print("XOR decision values:", np.round(decision_table(model, X)[:, 0], 3))
print("support vectors:", len(model.support_vectors), "of", len(X))

# Ten Gaussian blobs, one per class; one-vs-one trains 45 pair models.
# The model stores each support vector once, however many pairs use it.
rng = np.random.default_rng(0)
centers = rng.uniform(-8, 8, size=(10, 3))
Xs = np.vstack([rng.normal(c, 0.6, size=(25, 3)) for c in centers])
labels = np.repeat(np.arange(10), 25)

ensemble = train_multiclass(Xs, labels, KernelParams(c=10.0, gamma=0.3))
print("\npair models:", ensemble.n_pairs)
print("distinct support vectors:", len(ensemble.support_vectors), "of", len(Xs))
predicted, votes_won = classify(ensemble, Xs)
print("training accuracy:", float(np.mean(predicted == labels)))
print("winner votes on the first five samples:", votes_won[:5].tolist())

# A point deep inside a blob wins all of its 9 pair votes.
probe = centers[4]
probe_label, probe_votes = classify(ensemble, probe[None, :])
print(f"probe at center 4 -> class {probe_label[0]} with {probe_votes[0]} votes")

# Grid search scores every (C, gamma) cell with stratified k-fold CV
# and keeps the best; ties go to the smaller C, then smaller gamma.
params, table = grid_search(
    Xs,
    labels,
    c_grid=[1.0, 10.0, 100.0, 1000.0],
    gamma_grid=[1e-3, 1e-2, 1e-1, 1.0],
    folds=4,
    seed=1,
)
print("\ncv table (C, gamma -> accuracy):")
for row in table:
    print(f"  C={row['c']:>6}  gamma={row['gamma']:>6}  acc={row['accuracy']:.4f}")
print("selected:", params)

final = train_multiclass(Xs, labels, params)
holdout = np.vstack([rng.normal(c, 0.6, size=(5, 3)) for c in centers])
holdout_labels = np.repeat(np.arange(10), 5)
accuracy = float(np.mean(classify(final, holdout)[0] == holdout_labels))
print("held-out accuracy:", accuracy)
