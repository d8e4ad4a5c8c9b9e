"""Experiment harness: data IO, splits, synthetic data, config, CLI, driver."""
