"""The three benchmark workloads: inputs, command lines and output checks.

Every input is generated from the workload seed before timing starts, and
the program sees only those files and flags. Checks use independent oracles
(scipy.special, the planted truth) and return a list of failure messages.
Only the standard library is imported at module level, so a set-up probe
can time `import nakafit` without numpy already loaded.
"""

import math
import os
import random

CSV_HEADER = (
    "m_true,estimator,mean_m_hat,variance,normalized_variance,failures,"
    "crlb_block,crlb_total,crlb_modified_total"
)
ESTIMATORS = ("exact_ml", "cheng_beaulieu_1", "cheng_beaulieu_2", "greenwood_durand", "moment_based")


def _write_pgm(path, pixels, height, width):
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii") + bytes(pixels))


def _read_pgm(data):
    header = data.split(maxsplit=4)
    return header[0], int(header[1]), int(header[2]), int(header[3]), header[4]


class McStudy:
    """`nakafit bench` on the default grid: 6 shapes, 5 blocks x 30 samples, all estimators."""

    name = "mc_study"
    grid = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    block_size = 30
    num_blocks = 5
    checked_shapes = (1.0, 2.0, 4.0)

    def __init__(self, tiny=False):
        self.trials = 60 if tiny else 200
        self.units_per_command = self.trials * len(self.grid)

    def prepare(self, workdir, seed):
        argv = [
            "bench", "--m-grid", ",".join(format(m, "g") for m in self.grid),
            "--omega", "1", "--block-size", str(self.block_size),
            "--num-blocks", str(self.num_blocks), "--trials", str(self.trials),
            "--estimators", ",".join(ESTIMATORS), "--base-seed", str(seed),
        ]
        self.commands = [(argv, [])]

    @staticmethod
    def warmup_argv(workdir, seed):
        return ["bench", "--m-grid", "1", "--num-blocks", "1", "--trials", "1", "--base-seed", str(seed)]

    def _rows(self, stdout):
        lines = stdout.splitlines()
        return lines[0] if lines else "", [line.split(",") for line in lines[1:]]

    def check(self, index, stdout, files):
        from scipy.special import polygamma, psi

        header, rows = self._rows(stdout)
        if header != CSV_HEADER:
            return [f"CSV header changed: {header!r}"]
        expected = {(format(m, ".12g"), e) for m in self.grid for e in ESTIMATORS}
        if len(rows) != len(expected) or {(r[0], r[1]) for r in rows if len(r) == 9} != expected:
            return ["CSV rows do not cover every (shape, estimator) pair once"]
        errors = []
        n_total = self.block_size * self.num_blocks
        for r in rows:
            m = float(r[0])
            failures = int(r[5])
            if failures < self.trials and not math.isfinite(float(r[2])):
                errors.append(f"m={m} {r[1]}: mean_m_hat {r[2]} is not finite")
            crlb = [1.0 / (n * (polygamma(1, m) - 1.0 / m)) for n in (self.block_size, n_total)]
            crlb.append(1.0 / (n_total * (2.0 * (psi(m + 0.5) - psi(m)) - 1.0 / m)))
            for got, want in zip(r[6:9], crlb):
                if abs(float(got) - want) > 1e-10 * want:
                    errors.append(f"m={m}: bound column {got} != {want:.12g}")
            if r[1] != "exact_ml":
                continue
            if failures:
                errors.append(f"m={m}: exact_ml failed {failures} trials")
            if m in self.checked_shapes:
                var = float(r[3])
                lo, hi = 0.85 * crlb[1], 1.15 * crlb[0]
                if not lo <= var <= hi:
                    errors.append(f"m={m}: ML variance {var} outside [{lo:.6g}, {hi:.6g}]")
        return errors

    def output_counts(self, index, stdout, files):
        _, rows = self._rows(stdout)
        failures = sum(int(r[5]) for r in rows)
        return {
            "montecarlo.estimator_failure_rate": failures / (self.units_per_command * len(ESTIMATORS)),
            "cli.files_read": 0,
            "cli.bytes_read": 0,
        }


class Segment256:
    """`nakafit segment --k 2 --likelihood nakagami --beta 1` on two-region 8-bit PGMs.

    The left half of each image is Nakagami m = 1 and the right half m = 8,
    both at Omega = 1, so the regions differ in shape only. The number of
    ICM sweeps, and with it the time, varies by up to a third with the image
    and the k-means seed, so a run cycles through several images, each with
    its own k-means seed, all drawn from the workload seed.
    """

    name = "segment_256"
    min_accuracy = 0.90

    def __init__(self, tiny=False):
        self.size = 64 if tiny else 256
        self.images = 1 if tiny else 16
        self.units_per_command = self.size * self.size

    def prepare(self, workdir, seed):
        import numpy as np

        n = self.size
        self.paths = []
        self.commands = []
        for k in range(self.images):
            rng = np.random.default_rng([seed, 256, k])
            x = np.hstack([
                np.sqrt(rng.gamma(1.0, 1.0, size=(n, n // 2))),
                np.sqrt(rng.gamma(8.0, 1.0 / 8.0, size=(n, n // 2))),
            ])
            pixels = np.clip(np.rint(85.0 * x), 0, 255).astype(np.uint8)
            image = os.path.join(workdir, f"image{k}.pgm")
            _write_pgm(image, pixels.tobytes(), n, n)
            base = os.path.join(workdir, f"labels{k}")
            outputs = [base + ".pgm", base + ".txt", os.path.join(workdir, f"trace{k}.csv")]
            self.paths.append(image)
            self.commands.append(([
                "segment", "--in", image, "--k", "2", "--likelihood", "nakagami",
                "--beta", "1", "--seed", str(seed * self.images + k), "--out-labels", base,
                "--out-trace", outputs[2],
            ], outputs))

    @staticmethod
    def warmup_argv(workdir, seed):
        n = 16
        gen = random.Random(seed)

        def pixel(m):  # round(85 x), x Nakagami(m, Omega=1), kept in [1, 255]
            return min(255, max(1, round(85.0 * math.sqrt(gen.gammavariate(m, 1.0 / m)))))

        image = os.path.join(workdir, "warmup.pgm")
        _write_pgm(image, [pixel(1.0 if j < n // 2 else 8.0) for _ in range(n) for j in range(n)], n, n)
        return [
            "segment", "--in", image, "--k", "2", "--likelihood", "nakagami", "--beta", "1",
            "--seed", str(seed), "--out-labels", os.path.join(workdir, "warmup_labels"),
            "--out-trace", os.path.join(workdir, "warmup_trace.csv"),
        ]

    def _labels(self, files):
        tokens = files[1].split()
        rows, cols = int(tokens[0]), int(tokens[1])
        return rows, cols, [int(t) for t in tokens[2:]]

    def accuracy(self, labels):
        """Share of pixels labelled as planted, maximised over the label swap."""
        n = self.size
        right = sum(
            (labels[i * n + j] == 1) == (j >= n // 2) for i in range(n) for j in range(n)
        )
        a = right / (n * n)
        return max(a, 1.0 - a)

    def _trace(self, files):
        lines = files[2].decode("ascii").splitlines()
        return lines[0], [line.split(",") for line in lines[1:]]

    def check(self, index, stdout, files):
        n = self.size
        rows, cols, labels = self._labels(files)
        if (rows, cols) != (n, n) or len(labels) != n * n or set(labels) - {0, 1}:
            return [f"image {index}: labels.txt is not a {n}x{n} field of labels 0/1"]
        magic, width, height, maxval, raster = _read_pgm(files[0])
        if (magic, width, height, maxval) != (b"P5", n, n, 255) or list(raster) != [255 * v for v in labels]:
            return [f"image {index}: labels.pgm does not match labels.txt"]
        header, trace = self._trace(files)
        if header != "iteration,phase,energy" or not trace or trace[0][1] != "params":
            return [f"image {index}: trace.csv has an unexpected layout"]
        errors = []
        prev = None
        for step, (it, phase, energy) in enumerate(trace):
            e = float(energy)
            if int(it) != step or phase not in ("params", "icm"):
                return [f"image {index}: trace row {step} is malformed"]
            # trace energies carry 12 significant digits; rounding is monotone
            if phase == "icm" and e > prev:
                errors.append(f"image {index}: energy rose within an ICM phase at step {step}: {prev} -> {e}")
            prev = e
        sweeps = sum(1 for r in trace if r[1] == "icm")
        if stdout != f"energy={trace[-1][2]} sweeps={sweeps}\n":
            errors.append(f"image {index}: summary line {stdout!r} disagrees with the trace")
        acc = self.accuracy(labels)
        if acc < self.min_accuracy:
            errors.append(f"image {index}: accuracy {acc:.4f} < {self.min_accuracy}")
        return errors

    def output_counts(self, index, stdout, files):
        _, trace = self._trace(files)
        sweeps = sum(1 for r in trace if r[1] == "icm")
        return {
            "hmrf.icm_sweeps": sweeps,
            "hmrf.outer_rounds": sum(1 for r in trace if r[1] == "params"),
            "hmrf.pixel_updates": sweeps * self.units_per_command,
            "hmrf.accuracy": self.accuracy(self._labels(files)[2]),
            "pgm.bytes_written": len(files[0]) + len(files[1]),
            "cli.files_read": 1,
            "cli.bytes_read": os.path.getsize(self.paths[index]),
        }


class EstimateFiles:
    """`nakafit estimate --method exact_ml` over many 30-sample block files at m = 2.

    Each file is drawn from its own seed; a planted 5% of the files hold a
    constant value, so they are degenerate and must be skipped.
    """

    name = "estimate_files"
    block_size = 30

    def __init__(self, tiny=False):
        self.files = 40 if tiny else 1000
        self.degenerate = self.files // 20
        self.units_per_command = self.files

    def prepare(self, workdir, seed):
        import numpy as np

        picks = np.random.default_rng([seed, 30]).choice(self.files, self.degenerate, replace=False)
        self.planted = {int(i) for i in picks}
        self.paths = []
        self.blocks = []
        for i in range(self.files):
            rng = np.random.default_rng([seed, 30, i])
            if i in self.planted:
                values = [float(rng.uniform(0.5, 1.5))] * self.block_size
            else:
                values = np.sqrt(rng.gamma(2.0, 0.5, size=self.block_size)).tolist()
            path = os.path.join(workdir, f"block{i:05d}.txt")
            with open(path, "w", encoding="ascii") as fh:
                fh.write("".join(format(v, ".17g") + "\n" for v in values))
            self.paths.append(path)
            self.blocks.append(values)
        self.commands = [(["estimate", "--in", *self.paths, "--method", "exact_ml"], [])]

    @staticmethod
    def warmup_argv(workdir, seed):
        gen = random.Random(seed)
        path = os.path.join(workdir, "warmup_block.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("".join(f"{math.sqrt(gen.gammavariate(2.0, 0.5))!r}\n" for _ in range(30)))
        return ["estimate", "--in", path, "--method", "exact_ml"]

    def check(self, index, stdout, files):
        import numpy as np
        from scipy.special import polygamma, psi

        lines = stdout.splitlines()
        if len(lines) != self.files + 1:
            return [f"expected {self.files + 1} lines, got {len(lines)}"]
        errors = []
        m_hats = []
        for i, (line, values) in enumerate(zip(lines, self.blocks)):
            if i in self.planted:
                if line != f"block={i + 1} skipped degenerate":
                    errors.append(f"planted degenerate block {i + 1} not skipped: {line!r}")
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] != f"block={i + 1}":
                errors.append(f"block {i + 1}: malformed line {line!r}")
                continue
            m = float(parts[1].removeprefix("m_hat="))
            sigma = float(parts[2].removeprefix("sigma_hat="))
            x2 = np.asarray(values) ** 2
            mean_x2 = float(x2.mean())
            delta = math.log(mean_x2) - float(np.log(x2).mean())
            residual = abs(math.log(m) - psi(m) - delta)
            # The solver stops at a residual below 1e-10; m_hat is printed to
            # 12 significant digits, which can move the residual by |g'(m)|
            # times half a unit in the last printed digit.
            rounding = 0.5 * 10.0 ** (math.floor(math.log10(m)) - 11)
            if not residual < 1e-10 + abs(1.0 / m - polygamma(1, m)) * rounding:
                errors.append(f"block {i + 1}: |ln m - psi(m) - delta| = {residual:.3g}")
            if abs(sigma - mean_x2 / m) > 1e-9 * sigma:
                errors.append(f"block {i + 1}: sigma_hat {sigma} != mean(x^2)/m_hat")
            m_hats.append(m)
        used = self.files - self.degenerate
        final = lines[-1].split()
        if len(final) != 4 or final[2:] != [f"blocks={used}", f"skipped={self.degenerate}"]:
            errors.append(f"final line {lines[-1]!r} does not report blocks={used} skipped={self.degenerate}")
        elif m_hats:
            m_final = float(final[0].removeprefix("m_hat="))
            mean = math.fsum(m_hats) / len(m_hats)
            if abs(m_final - mean) > 1e-9 * mean:
                errors.append(f"final m_hat {m_final} != mean of block estimates {mean}")
        return errors

    def output_counts(self, index, stdout, files):
        return {
            "cli.files_read": self.files,
            "cli.bytes_read": sum(os.path.getsize(p) for p in self.paths),
        }


WORKLOADS = {w.name: w for w in (McStudy, Segment256, EstimateFiles)}
