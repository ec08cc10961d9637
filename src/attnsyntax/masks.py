"""Head masks: which (layer, head) pairs feed phrase extraction."""

from __future__ import annotations

from dataclasses import dataclass

Head = tuple[int, int]


@dataclass(frozen=True)
class HeadMask:
    """A set of 1-based (layer, head) pairs within a (layers, heads) universe."""

    heads: frozenset[Head]
    universe: tuple[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "heads", frozenset(self.heads))
        layers, heads = self.universe
        if layers < 1 or heads < 1:
            raise ValueError(f"invalid universe {self.universe}")
        for layer, head in self.heads:
            if not (1 <= layer <= layers and 1 <= head <= heads):
                raise ValueError(
                    f"head ({layer},{head}) outside universe 1..{layers} x 1..{heads}"
                )

    @classmethod
    def all_heads(cls, layers: int, heads: int) -> "HeadMask":
        pairs = frozenset(
            (layer, head)
            for layer in range(1, layers + 1)
            for head in range(1, heads + 1)
        )
        return cls(pairs, (layers, heads))

    @classmethod
    def from_spec(cls, spec: str, layers: int, heads: int) -> "HeadMask":
        """Parse ``all`` or a comma list of 1-based ``layer:head`` pairs."""
        spec = spec.strip()
        if spec == "all":
            return cls.all_heads(layers, heads)
        pairs = set()
        for item in spec.split(","):
            item = item.strip()
            try:
                layer_text, head_text = item.split(":")
                pairs.add((int(layer_text), int(head_text)))
            except ValueError as exc:
                raise ValueError(
                    f"bad head spec item {item!r}: expected layer:head"
                ) from exc
        if not pairs:
            raise ValueError("empty head spec")
        return cls(frozenset(pairs), (layers, heads))

    def to_spec(self) -> str:
        if len(self.heads) == self.universe[0] * self.universe[1]:
            return "all"
        return ",".join(f"{layer}:{head}" for layer, head in self.sorted_heads())

    def sorted_heads(self) -> list[Head]:
        return sorted(self.heads)

    def __len__(self) -> int:
        return len(self.heads)

    def __contains__(self, head: Head) -> bool:
        return head in self.heads
