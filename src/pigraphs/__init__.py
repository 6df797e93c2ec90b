"""Principal ideal graphs of finite semigroups, skeletal quotients, and
exact spectral verification."""
