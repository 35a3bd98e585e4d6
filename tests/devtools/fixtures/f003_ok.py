"""F003 clean fixture: the declared draw-free path only derives child
streams, and the root stream is seeded from a parameter."""


class RandomSource:
    def __init__(self, seed):
        self.seed = seed

    def choice(self, items):
        return items[0]

    def substream(self, label):
        return RandomSource(self.seed)


class Placer:
    def pick(self, rng: RandomSource, items):  # simlint: draws=0
        rng.substream("placement")
        return items[0]


def root_stream(seed):
    return RandomSource(seed)
