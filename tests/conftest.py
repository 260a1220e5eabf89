"""Test-session set-up shared by every test module.

When a @given test fails, hypothesis' pytest plugin imports
hypothesis.extra._patching to explain the failure. That module imports
libcst, whose import warns "mypy_extensions.TypedDict is deprecated"; under
`-W error::DeprecationWarning` the warning ends the whole run with an
INTERNALERROR before the falsifying example is printed. Importing the module
once here, with that one import's DeprecationWarnings ignored, keeps a
failing property test a reported failure. No warning filter of entdist or
test code changes.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin skips the import, and its patch, too
        pass
