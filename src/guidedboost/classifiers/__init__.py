"""Base classifiers and the probability adapters that make them routable."""
