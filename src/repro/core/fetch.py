"""Fetch thread-selection policies (paper section 5.3).

The fetch engine selects up to two threads per cycle and takes up to four
instructions from each.  The policy decides the order in which candidate
threads are offered the two fetch slots:

* **RR** (round-robin): the baseline rotation.
* **ICOUNT** (Tullsen et al.): prefer threads with the fewest
  instructions in the front end and issue queues — starves queue-clogging
  threads of fetch bandwidth.
* **OCOUNT**: like ICOUNT but counts *operations*: a MOM stream
  instruction holding the queue counts as its stream length, using the
  stream-length register's information.  Only meaningful for MOM.
* **BALANCE**: mixes scalar and vector work: when the vector pipeline is
  empty, threads that fetched vector instructions last time get priority;
  otherwise threads that did not.  Ties break round-robin.
"""

from __future__ import annotations

import enum


class FetchPolicy(enum.Enum):
    RR = "rr"
    ICOUNT = "icount"
    OCOUNT = "ocount"
    BALANCE = "balance"

