"""Community-network case study (Section 5).

The paper evaluates the framework on bandwidth reservation at the Internet gateways of
a community network (Guifi.net).  The real network and its live demand are not
available offline, so this package generates synthetic but structurally faithful
scenarios:

* :mod:`repro.community.topology` — mesh community networks with a small subset of
  gateway nodes (the providers) and many member nodes (the users), plus the
  site-assignment used by the two-tier LAN/WAN latency model.
* :mod:`repro.community.workload` — the exact bid/demand/capacity distributions the
  evaluation section specifies (§6.2 for the double auction, §6.3 for the standard
  auction).

A scenario spec runs the case-study round: ``topology="community"`` generates the
network with the spec's providers as its gateways, and ``latency="community"``
takes the LAN/WAN model from it (:mod:`repro.scenarios`).
"""

from repro.community.topology import CommunityNetwork, generate_community_network
from repro.community.workload import (
    DoubleAuctionWorkload,
    StandardAuctionWorkload,
    VRSessionWorkload,
    WorkloadParameters,
)

__all__ = [
    "CommunityNetwork",
    "DoubleAuctionWorkload",
    "StandardAuctionWorkload",
    "VRSessionWorkload",
    "WorkloadParameters",
    "generate_community_network",
]
