"""Network flows as a discrete language, modeled by a probabilistic
suffix tree, with likelihood-based anomaly ranking and ROC evaluation."""
