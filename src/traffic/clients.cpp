#include "bgpcmp/traffic/clients.h"

#include <limits>

#include "bgpcmp/traffic/client_stream.h"

namespace bgpcmp::traffic {

ClientBase ClientBase::generate(const Internet& internet,
                                const ClientBaseConfig& config) {
  // The whole population is one chunk of the streaming generator.
  const ClientStream stream{&internet, config, std::numeric_limits<std::size_t>::max()};
  return restore(stream.chunk(0).prefixes);
}

ClientBase ClientBase::restore(std::vector<ClientPrefix> prefixes) {
  ClientBase out;
  out.prefixes_ = std::move(prefixes);
  return out;
}

bgp::PrefixMap<PrefixId> ClientBase::prefix_map() const {
  bgp::PrefixMap<PrefixId> map;
  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    map.insert(prefixes_[i].prefix, static_cast<PrefixId>(i));
  }
  return map;
}

}  // namespace bgpcmp::traffic
