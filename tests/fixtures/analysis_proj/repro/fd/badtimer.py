# R4 fixture: timer-arming Module subclasses with and without on_restart.

from ..kernel.module import Module


class LeakyTimer(Module):  # planted R4: arms a timer, no on_restart
    def on_start(self):
        self.set_timer(1.0, self._tick)

    def _tick(self):
        self.set_timer(1.0, self._tick)


# repro: ignore[R4] -- fixture: justified class-level suppression is honoured
class WaivedTimer(Module):
    def on_start(self):
        self.set_timer(1.0, self._tick)

    def _tick(self):
        pass


class RearmedBase(Module):
    def on_start(self):
        self.set_timer(1.0, self._tick)

    def on_restart(self):
        self.set_timer(1.0, self._tick)

    def _tick(self):
        pass


class InheritsRearm(RearmedBase):  # clean: ancestor defines on_restart
    pass


class NoTimers(Module):  # clean: purely message-driven
    def on_start(self):
        pass
