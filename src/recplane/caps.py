"""Enumeration limits for the brute-force verification paths."""

from __future__ import annotations

import os
from dataclasses import dataclass


class CapExceeded(Exception):
    """An enumeration would exceed its configured cap."""

    def __init__(self, what: str, required: int, cap: int):
        super().__init__(f"{what} needs {required} items, cap is {cap}")
        self.what = what
        self.required = required
        self.cap = cap


@dataclass(frozen=True)
class Caps:
    """Size limits; see `from_env` for the environment overrides."""

    points: int = 10**6      # p^m for point counting
    flats: int = 4096        # 2^m for flat enumeration
    relations: int = 4096    # p^(m - rank) for relation enumeration
    family: int = 4096       # p^C(m,r) for the basis-family enumeration

    @staticmethod
    def from_env() -> "Caps":
        """The defaults, each overridden by its RECPLANE_CAP_<NAME> variable
        when set; a value that is not a nonnegative integer raises
        ValueError naming the variable."""
        vals = {}
        for name in ("points", "flats", "relations", "family"):
            var = f"RECPLANE_CAP_{name.upper()}"
            raw = os.environ.get(var)
            if raw:
                try:
                    value = int(raw)
                except ValueError:
                    value = -1
                if value < 0:
                    raise ValueError(f"{var} must be a nonnegative integer, "
                                     f"not {raw!r}")
                vals[name] = value
        return Caps(**vals)

    def check(self, what: str, required: int, cap: int) -> None:
        if required > cap:
            raise CapExceeded(what, required, cap)
