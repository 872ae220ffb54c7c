"""A fixed yardstick for how fast the host runs Python right now.

Usage: python3 probe.py

The benchmark runs this between stages and times it from outside, like a
stage: interpreter start-up, a few imports, then dict, tuple and string
work of the kind flowlang does. Its run time depends only on the host,
never on the code under test, so a stage's wall time divided by the
probe times around it cancels the speed changes of a shared host, which
on a small virtual machine can reach 2x within minutes.
"""

import collections
import json
import math

counts = collections.Counter(tuple(range(i % 7, i % 7 + 5)) for i in range(40_000))
print(len(json.dumps({str(key): math.log(n) for key, n in counts.items()})))
