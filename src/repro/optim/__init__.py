"""The AdamW kernel (the Eq. 13 schedule is ``repro.core.NoamAdamW``)."""
from repro.optim.adamw import AdamW

__all__ = ["AdamW"]
