"""From-scratch MLP stack: layers, losses, models, and training loops."""
