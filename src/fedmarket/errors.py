"""Shared exception types."""


class ConfigError(ValueError):
    """A scenario, partition, or market configuration is not realizable."""


def check_rules(rules: list[tuple[bool, str]]) -> None:
    """A config section's load rules as ``(broken, reason)`` rows, checked in order."""
    for broken, reason in rules:
        if broken:
            raise ConfigError(reason)
