# Fixture twin of the kernel Module base: just enough surface for the
# R4 resolver (timer methods + default lifecycle hooks).


class Module:
    def set_timer(self, delay, fn, *args, cancellable=False):
        pass

    def on_restart(self):
        pass
