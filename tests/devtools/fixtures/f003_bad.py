"""F003 fixture: a declared draw-free path that draws, and a stream
seeded with a literal constant."""


class RandomSource:
    def __init__(self, seed):
        self.seed = seed

    def choice(self, items):
        return items[0]

    def substream(self, label):
        return RandomSource(self.seed)


class Placer:
    def pick(self, rng: RandomSource, items):  # simlint: draws=0
        return rng.choice(items)


def root_stream():
    return RandomSource(42)
