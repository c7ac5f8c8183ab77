"""Exception hierarchy shared by all cocktail modules.

The command line maps these onto process exit codes: input problems exit
with 2, degenerate data with 3, and internal contract violations
(:class:`ContractViolationError`) with 4.

It also holds the text reader and the model-file saver and loader, so that
every module maps a bad file onto these exceptions the same way.
"""

import zipfile
from pathlib import Path
from tokenize import TokenError

import numpy as np

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_DEGENERATE_DATA = 3
EXIT_INTERNAL_ERROR = 4


class CocktailError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CocktailError, ValueError):
    """An argument violates a documented precondition (e.g. angle out of range)."""


class InputError(CocktailError):
    """A file, configuration document, or CLI argument is unusable."""


class ParseError(InputError):
    """A structured file could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FormatError(InputError):
    """A file has a recognizable but unsupported format or version."""


class DegenerateDataError(CocktailError):
    """The data is well-formed but carries no usable signal (e.g. zero variance)."""


class ContractViolationError(CocktailError):
    """Caller combined arguments in a way the API forbids."""


def read_text(path, what) -> str:
    """The UTF-8 text of the ``what`` file at ``path``.  A missing file raises
    :class:`InputError`, and bytes that are not UTF-8 :class:`FormatError`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputError(f"no such {what}: {path}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} {path} is not UTF-8 text: {exc}") from None


def save_model(path, arrays) -> None:
    """Write the named ``arrays`` as an uncompressed .npz file at exactly ``path``."""
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_model(path, what, expected, build):
    """``build(**arrays)`` of the arrays of the ``what`` file at ``path`` that
    :func:`save_model` wrote.

    ``expected`` maps each name to its ``(dtype, shape)``: ``np.float64``,
    stored as any real numbers, or ``np.int64``, stored as integers.  Each
    ``.npy`` header is checked before its data is read, so a huge declared
    shape is never allocated.  A missing file raises :class:`InputError`;
    any other file, or a :class:`DomainError` from ``build``, raises
    :class:`FormatError`.
    """
    arrays = {}
    try:
        with zipfile.ZipFile(path) as archive:
            for name, (dtype, shape) in expected.items():
                info = archive.getinfo(name + ".npy")
                # np.savez stores members uncompressed and unencrypted; refusing
                # others keeps the decompressors' own errors out of reach.
                if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
                    raise FormatError(f"{what}: {name} is not stored uncompressed")
                with archive.open(info) as member:
                    np.lib.format.read_magic(member)
                    stored_shape, fortran, stored = np.lib.format.read_array_header_1_0(member)
                    if (stored.kind not in ("iu" if dtype == np.int64 else "fiu")
                            or stored_shape != shape):
                        raise FormatError(f"{what}: {name} must be {np.dtype(dtype)} of shape "
                                          f"{shape}, got {stored} of shape {stored_shape}")
                    data = member.read()  # data of another length fails the reshape
                arrays[name] = np.frombuffer(data, stored).reshape(
                    shape, order="F" if fortran else "C").astype(dtype)
        return build(**arrays)
    except FileNotFoundError:
        raise InputError(f"no such {what}: {path}") from None
    except KeyError as exc:  # from getinfo: the archive lacks the array
        raise FormatError(f"{what} {path} lacks an array: {exc}") from None
    except DomainError as exc:
        raise FormatError(f"{what} {path}: {exc}") from exc
    # TokenError: numpy's fallback parser for .npy headers written by Python 2.
    except (zipfile.BadZipFile, EOFError, NotImplementedError, OSError, TokenError,
            ValueError) as exc:
        raise FormatError(f"not a valid {what}: {path}") from exc
