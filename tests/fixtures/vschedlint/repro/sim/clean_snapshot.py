"""Copy-safe registration forms: none of these may fire VSL4xx.

Bound methods of ordinary objects deep-copy through the memo; module-level
functions are atoms by design; functools.partial over either is fine.
"""

from functools import partial


def on_fire(world, n):
    world.note(n)


class Ticker:
    def __init__(self, engine, period):
        self.engine = engine
        self.period = period
        self.count = 0

    def _tick(self):
        self.count += 1
        self.engine.call_in(self.period, self._tick)


def wire(engine, world):
    t = Ticker(engine, 1000)
    engine.call_in(t.period, t._tick)          # bound method: safe
    engine.call_at(2000, on_fire, world, 3)    # module function + args
    engine.call_at(3000, partial(on_fire, world))  # partial over module fn
    engine.add_sync_hook(t._tick)              # bound method hook
