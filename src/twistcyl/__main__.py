"""``python -m twistcyl``: the same front end as the ``twistcyl`` script."""
from .cli import console_entry

if __name__ == "__main__":
    console_entry()
