#include "crypto/grouped_ring.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/common.h"

namespace ppml::crypto {

const char* topology_name(AggregationTopology topology) {
  switch (topology) {
    case AggregationTopology::kPairwise:
      return "pairwise";
    case AggregationTopology::kGroupedRing:
      return "grouped-ring";
  }
  return "unknown";
}

std::size_t GroupLayout::group_of(std::size_t party) const {
  for (std::size_t g = 0; g < groups.size(); ++g) {
    // Groups are contiguous slices of a sorted list: binary search works,
    // but group counts are small enough that the scan reads clearer.
    if (std::binary_search(groups[g].begin(), groups[g].end(), party))
      return g;
  }
  PPML_CHECK(false, "GroupLayout::group_of: party is not a participant");
  return 0;  // unreachable
}

std::size_t auto_group_size(std::size_t num_participants) {
  PPML_CHECK(num_participants >= 1, "auto_group_size: empty participant set");
  std::size_t size = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_participants))));
  // Guard the float against boundary error: the smallest s with
  // s * s >= M.
  while (size > 1 && (size - 1) * (size - 1) >= num_participants) --size;
  while (size * size < num_participants) ++size;
  return size;
}

std::size_t resolve_group_size(std::size_t requested,
                               std::size_t num_participants) {
  if (requested == 0) return auto_group_size(num_participants);
  return std::min(requested, num_participants);
}

GroupLayout build_group_layout(std::span<const std::size_t> participants,
                               std::size_t group_size) {
  const std::size_t m = participants.size();
  PPML_CHECK(m >= 1, "build_group_layout: empty participant set");
  for (std::size_t k = 1; k < m; ++k)
    PPML_CHECK(participants[k - 1] < participants[k],
               "build_group_layout: participants must be sorted ascending "
               "and duplicate-free (the layout is derived independently by "
               "every party — order is part of the protocol)");
  const std::size_t size = resolve_group_size(group_size, m);
  const std::size_t num_groups = (m + size - 1) / size;
  // Balanced contiguous cut: the first m % G groups carry one extra
  // member, so sizes differ by at most one and never exceed `size`.
  const std::size_t base = m / num_groups;
  const std::size_t extra = m % num_groups;
  GroupLayout layout;
  layout.groups.resize(num_groups);
  std::size_t offset = 0;
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::size_t count = base + (g < extra ? 1 : 0);
    layout.groups[g].assign(participants.begin() + offset,
                            participants.begin() + offset + count);
    offset += count;
  }
  return layout;
}

std::vector<std::size_t> mask_peers(const GroupLayout& layout,
                                    std::size_t party) {
  const std::size_t g = layout.group_of(party);
  std::vector<std::size_t> peers;
  for (std::size_t member : layout.groups[g])
    if (member != party) peers.push_back(member);
  const std::size_t num_groups = layout.num_groups();
  if (num_groups >= 2 && party == layout.leader(g)) {
    peers.push_back(layout.leader((g + num_groups - 1) % num_groups));
    peers.push_back(layout.leader((g + 1) % num_groups));
  }
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
  return peers;
}

std::size_t grouped_mask_edges(std::size_t num_participants,
                               std::size_t group_size) {
  std::vector<std::size_t> participants(num_participants);
  std::iota(participants.begin(), participants.end(), std::size_t{0});
  const GroupLayout layout = build_group_layout(participants, group_size);
  std::size_t edges = 0;
  for (const std::vector<std::size_t>& group : layout.groups)
    edges += group.size() * (group.size() - 1) / 2;
  const std::size_t num_groups = layout.num_groups();
  if (num_groups >= 3)
    edges += num_groups;
  else if (num_groups == 2)
    edges += 1;
  return edges;
}

}  // namespace ppml::crypto
