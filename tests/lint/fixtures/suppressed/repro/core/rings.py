"""SVT005 suppressed cases: structurally bounded loops, explained."""


def take(ring):
    # svtlint: disable=SVT005 — bounded: each iteration pops one
    # entry off a finite ring; an empty ring raises ChannelError.
    while True:
        command = ring.pop()
        if command.ok:
            return command


def poll(flag):
    while not flag.is_set():  # svtlint: disable=SVT005 — bounded: set first
        pass
