"""Campaign flags the job service used to submit with.

The job service itself is gone in 1.2.0 (see
``tests.test_attack_api.TestRemovedIn120``). Its campaigns are the CLI
campaigns, and the flag contract they share — every campaign parser
accepts the unified runtime flags and the runner campaigns the row
policy flags — still holds. The tests live in tests/test_cli.py and are
re-exported here so they keep running under this module's ids as well.
"""

from __future__ import annotations

from tests.test_cli import TestUnifiedRuntimeFlags  # noqa: F401
