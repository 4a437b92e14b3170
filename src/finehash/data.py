"""Synthetic fine-grained dataset, PPM image IO, and manifest ingestion.

The synthetic generator builds a deliberately fine-grained retrieval task:
every class shares one background texture (the meta-category) and differs
only through a few small patches whose pixel patterns deviate slightly from
shared prototypes.  Patch positions jitter per sample and pixel noise is
added on top, so intra-class variation can exceed the inter-class signal.

On disk a dataset is a ``manifest.csv`` with ``relative_path,label,split``
rows next to binary P6 PPM images; the generator writes exactly that layout
so synthetic and external data take the same ingestion path.  The manifest
is written last and moved into place whole: it is the commit point of a
written set, so an interrupted write leaves no manifest to load.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write
from .errors import ContractError, DimensionError, IngestionError

SPLITS = ("train-db", "query")
MANIFEST_HEADER = ("relative_path", "label", "split")


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic generator.

    position_jitter and pixel_noise control intra-class spread;
    pattern_scale controls how far each class's patch patterns drift from
    the shared prototypes, i.e. the inter-class signal.
    """

    num_classes: int = 8
    per_class: int = 50
    queries_per_class: int = 10
    image_side: int = 32
    parts_per_image: int = 4
    patch_size: int = 8
    position_jitter: float = 0.5
    pixel_noise: float = 0.01
    pattern_scale: float = 0.9
    seed: int = 0

    def __post_init__(self):
        for config_field in fields(self):
            value = getattr(self, config_field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ContractError(
                    f"SynthConfig: {config_field.name} must be finite, got {value}"
                )
        for name in ("num_classes", "per_class", "queries_per_class", "image_side",
                     "parts_per_image", "patch_size"):
            if getattr(self, name) < 1:
                raise ContractError(f"SynthConfig: {name} must be >= 1")
        if self.patch_size > self.image_side:
            raise ContractError(
                f"SynthConfig: patch size {self.patch_size} overflows image side {self.image_side}"
            )
        if self.position_jitter < 0.0 or self.pixel_noise < 0.0 or self.pattern_scale < 0.0:
            raise ContractError("SynthConfig: noise scales must be >= 0")


@dataclass
class Dataset:
    """Images with dense integer labels and a split tag per item."""

    images: np.ndarray  # [n, side, side, 3] float64 in [0, 1]
    labels: np.ndarray  # [n] int64, dense in [0, num_classes)
    splits: np.ndarray  # [n] str, each in SPLITS
    label_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.splits = np.asarray(self.splits)
        n = len(self.labels)
        if len(self.splits) != n or self.images.shape[0] != n:
            raise DimensionError("Dataset: images, labels, and splits disagree on n")
        if n == 0:
            return
        if self.images.ndim != 4 or self.images.shape[3] != 3:
            raise DimensionError(f"Dataset: images shape {self.images.shape}, expected [n, h, w, 3]")
        if self.images.min() < 0.0 or self.images.max() > 1.0:
            raise ContractError("Dataset: image values must lie in [0, 1]")
        unknown = set(self.splits.tolist()) - set(SPLITS)
        if unknown:
            raise ContractError(f"Dataset: unknown split tags {sorted(unknown)}")
        uniques = np.unique(self.labels)
        if uniques[0] != 0 or uniques[-1] != len(uniques) - 1:
            raise ContractError("Dataset: labels must be dense in [0, num_classes)")

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    @property
    def train_indices(self) -> np.ndarray:
        return np.flatnonzero(self.splits == "train-db")

    @property
    def query_indices(self) -> np.ndarray:
        return np.flatnonzero(self.splits == "query")

    @property
    def train_images(self) -> np.ndarray:
        return self.images[self.train_indices]

    @property
    def train_labels(self) -> np.ndarray:
        return self.labels[self.train_indices]

    @property
    def query_images(self) -> np.ndarray:
        return self.images[self.query_indices]

    @property
    def query_labels(self) -> np.ndarray:
        return self.labels[self.query_indices]

    def require_both_splits(self) -> None:
        """Training needs every class present in both the database and queries."""
        train = set(self.train_labels.tolist())
        query = set(self.query_labels.tolist())
        missing = set(range(self.num_classes)) - (train & query)
        if missing:
            raise ContractError(f"Dataset: classes {sorted(missing)} missing from a split")


def _smooth_wrap(texture: np.ndarray, passes: int = 2) -> np.ndarray:
    for _ in range(passes):
        texture = (
            texture
            + np.roll(texture, 1, axis=0)
            + np.roll(texture, -1, axis=0)
            + np.roll(texture, 1, axis=1)
            + np.roll(texture, -1, axis=1)
        ) / 5.0
    return texture


def generate_synthetic(config: SynthConfig) -> Dataset:
    """Render the synthetic dataset; byte-identical for a fixed config."""
    rng = np.random.default_rng(config.seed)
    side, patch = config.image_side, config.patch_size
    parts, classes = config.parts_per_image, config.num_classes

    block = -(-side // 4)  # ceil
    coarse = rng.uniform(0.25, 0.75, size=(4, 4, 3))
    background = _smooth_wrap(np.kron(coarse, np.ones((block, block, 1)))[:side, :side])

    prototypes = rng.uniform(0.0, 1.0, size=(parts, patch, patch, 3))
    cells = side // patch
    if cells * cells >= parts:
        # Canonical positions sit in distinct grid cells so parts never
        # fully occlude each other; jitter only nudges them around the cell.
        chosen = rng.permutation(cells * cells)[:parts]
        positions = np.stack([chosen // cells, chosen % cells], axis=1) * patch
    else:
        positions = rng.integers(0, side - patch + 1, size=(parts, 2))
    class_patches = np.clip(
        prototypes[None] + config.pattern_scale * rng.normal(size=(classes,) + prototypes.shape),
        0.0,
        1.0,
    )

    def render(class_id: int) -> np.ndarray:
        image = background.copy()
        for j in range(parts):
            offset = np.rint(rng.normal(0.0, config.position_jitter, size=2)).astype(int)
            row, col = np.clip(positions[j] + offset, 0, side - patch)
            image[row : row + patch, col : col + patch] = class_patches[class_id, j]
        image += rng.normal(0.0, config.pixel_noise, size=image.shape)
        return np.clip(image, 0.0, 1.0)

    images, labels, splits = [], [], []
    for class_id in range(classes):
        for _ in range(config.per_class):
            images.append(render(class_id))
            labels.append(class_id)
            splits.append("train-db")
        for _ in range(config.queries_per_class):
            images.append(render(class_id))
            labels.append(class_id)
            splits.append("query")
    return Dataset(
        images=np.stack(images),
        labels=np.array(labels),
        splits=np.array(splits),
        # zero-padded, so that load_manifest's string order is class order
        label_names=[str(c).zfill(len(str(classes - 1))) for c in range(classes)],
    )


def build_similarity(labels: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    """Pairwise +/-1 similarity: +1 iff labels match.

    With one argument the matrix is square (and symmetric with a +1
    diagonal); with two it compares labels row-by-column.
    """
    labels = np.asarray(labels)
    other = labels if other is None else np.asarray(other)
    if labels.ndim != 1 or other.ndim != 1:
        raise DimensionError("build_similarity: rank-1 label arrays required")
    return np.where(labels[:, None] == other[None, :], 1.0, -1.0)


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    """Write one [h, w, 3] image in [0, 1] as a binary (P6) PPM."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise DimensionError(f"write_ppm: image shape {image.shape}, expected [h, w, 3]")
    if image.min() < 0.0 or image.max() > 1.0:
        raise ContractError("write_ppm: image values must lie in [0, 1]")
    height, width, _ = image.shape
    quantized = np.rint(image * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())


def read_ppm(path: str | Path) -> np.ndarray:
    """Parse a binary (P6) PPM into a float64 [h, w, 3] image in [0, 1].

    The header tokenizer accepts arbitrary whitespace and '#' comments;
    malformed headers raise IngestionError naming the offending line.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read image: {exc}") from exc
    pos, line = 0, 1

    def fail(message: str) -> IngestionError:
        return IngestionError(f"{path}: line {line}: {message}")

    def next_token(what: str) -> bytes:
        nonlocal pos, line
        while pos < len(blob):
            ch = blob[pos]
            if ch == ord("#"):
                while pos < len(blob) and blob[pos] != ord("\n"):
                    pos += 1
            elif ch in b" \t\r\n":
                if ch == ord("\n"):
                    line += 1
                pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and blob[pos] not in b" \t\r\n#":
            pos += 1
        if start == pos:
            raise fail(f"missing {what} in PPM header")
        return blob[start:pos]

    def next_int(what: str) -> int:
        token = next_token(what)
        try:
            return int(token)
        except ValueError:
            raise fail(f"malformed {what} {token!r} in PPM header") from None

    magic = next_token("magic")
    if magic != b"P6":
        raise fail(f"expected P6 magic, got {magic!r}")
    width = next_int("width")
    height = next_int("height")
    maxval = next_int("maxval")
    if width < 1 or height < 1:
        raise fail(f"invalid dimensions {width}x{height}")
    if maxval != 255:
        raise fail(f"unsupported maxval {maxval}, only 255 is accepted")
    if pos >= len(blob) or blob[pos] not in b" \t\r\n":
        raise fail("missing whitespace after maxval")
    pos += 1
    expected = width * height * 3
    data = blob[pos : pos + expected]
    if len(data) != expected:
        raise IngestionError(
            f"{path}: truncated pixel data, expected {expected} bytes, got {len(data)}"
        )
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3)
    return pixels.astype(np.float64) / 255.0


def write_dataset(dataset: Dataset, root: str | Path) -> Path:
    """Write PPM images, then manifest.csv, under root; returns the manifest path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rows = [MANIFEST_HEADER]
    counters: dict[tuple[int, str], int] = {}
    for image, label, split in zip(dataset.images, dataset.labels, dataset.splits):
        label = int(label)
        index = counters.get((label, split), 0)
        counters[(label, split)] = index + 1
        name = dataset.label_names[label] if dataset.label_names else str(label)
        rel = f"class_{label:03d}/{split}_{index:04d}.ppm"
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        write_ppm(root / rel, image)
        rows.append((rel, name, str(split)))
    manifest = root / "manifest.csv"
    with atomic_write(manifest, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return manifest


def load_manifest(manifest_path: str | Path) -> Dataset:
    """Ingest a manifest.csv and its images into a Dataset.

    Label tokens are remapped to dense integers in sorted token order; the
    original tokens are kept as label_names.  Duplicate paths, unknown
    splits, missing images, and mismatched image sizes are all ingestion
    errors naming the offending line.
    """
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    try:
        lines = manifest_path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"{manifest_path}: cannot read manifest: {exc}") from exc
    rows: list[tuple[int, str, str, str]] = []
    seen: dict[str, int] = {}
    for line_no, row in enumerate(csv.reader(lines), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if line_no == 1 and tuple(cell.strip() for cell in row) == MANIFEST_HEADER:
            continue
        if len(row) != 3:
            raise IngestionError(
                f"{manifest_path}: line {line_no}: expected relative_path,label,split"
            )
        rel, label, split = (cell.strip() for cell in row)
        if split not in SPLITS:
            raise IngestionError(
                f"{manifest_path}: line {line_no}: unknown split {split!r}"
            )
        if rel in seen:
            raise IngestionError(
                f"{manifest_path}: line {line_no}: duplicate path {rel!r} "
                f"(first seen on line {seen[rel]})"
            )
        seen[rel] = line_no
        rows.append((line_no, rel, label, split))
    if not rows:
        return Dataset(
            images=np.zeros((0, 0, 0, 3)),
            labels=np.zeros(0, dtype=np.int64),
            splits=np.array([], dtype=str),
        )
    names = sorted({label for _, _, label, _ in rows})
    label_ids = {name: i for i, name in enumerate(names)}
    images, labels, splits = [], [], []
    shape: tuple[int, ...] | None = None
    for line_no, rel, label, split in rows:
        image = read_ppm(root / rel)
        if shape is None:
            shape = image.shape
        elif image.shape != shape:
            raise IngestionError(
                f"{manifest_path}: line {line_no}: image {rel!r} has shape "
                f"{image.shape}, expected {shape}"
            )
        images.append(image)
        labels.append(label_ids[label])
        splits.append(split)
    return Dataset(
        images=np.stack(images),
        labels=np.array(labels),
        splits=np.array(splits),
        label_names=names,
    )
