"""Read the (name, passed, witness) records of a `pvi_moduli.verify` declaration."""


def failed(records) -> list:
    """The names of the failed records, in order."""
    return [name for name, passed, _ in records if not passed]


def passes(records) -> dict:
    """Each record name -> whether every record of that name passed."""
    out = {}
    for name, passed, _ in records:
        out[name] = out.get(name, True) and passed
    return out
