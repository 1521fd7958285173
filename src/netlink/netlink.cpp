#include "netlink/netlink.h"

#include <algorithm>

#include "util/logging.h"

namespace linuxfp::nl {

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kNewLink: return "RTM_NEWLINK";
    case MsgType::kDelLink: return "RTM_DELLINK";
    case MsgType::kNewAddr: return "RTM_NEWADDR";
    case MsgType::kDelAddr: return "RTM_DELADDR";
    case MsgType::kNewRoute: return "RTM_NEWROUTE";
    case MsgType::kDelRoute: return "RTM_DELROUTE";
    case MsgType::kNewNeigh: return "RTM_NEWNEIGH";
    case MsgType::kDelNeigh: return "RTM_DELNEIGH";
    case MsgType::kNewRule: return "IPT_NEWRULE";
    case MsgType::kDelRule: return "IPT_DELRULE";
    case MsgType::kNewSet: return "IPSET_NEW";
    case MsgType::kDelSet: return "IPSET_DEL";
    case MsgType::kSysctl: return "SYSCTL";
    case MsgType::kNewService: return "IPVS_NEWSVC";
    case MsgType::kDelService: return "IPVS_DELSVC";
  }
  return "?";
}

Group group_of(MsgType type) {
  switch (type) {
    case MsgType::kNewLink:
    case MsgType::kDelLink:
      return Group::kLink;
    case MsgType::kNewAddr:
    case MsgType::kDelAddr:
      return Group::kAddr;
    case MsgType::kNewRoute:
    case MsgType::kDelRoute:
      return Group::kRoute;
    case MsgType::kNewNeigh:
    case MsgType::kDelNeigh:
      return Group::kNeigh;
    case MsgType::kNewRule:
    case MsgType::kDelRule:
    case MsgType::kNewSet:
    case MsgType::kDelSet:
      return Group::kNetfilter;
    case MsgType::kSysctl:
      return Group::kSysctl;
    case MsgType::kNewService:
    case MsgType::kDelService:
      return Group::kIpvs;
  }
  return Group::kLink;
}

bool Socket::member_of(Group group) const {
  return std::find(groups_.begin(), groups_.end(), group) != groups_.end();
}

bool Socket::receive(Message& out) {
  if (queue_.empty()) return false;
  out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

Socket* Bus::open_socket() {
  sockets_.push_back(std::make_unique<Socket>());
  return sockets_.back().get();
}

void Bus::publish(MsgType type, util::Json attrs) {
  ++published_;
  Group group = group_of(type);
  // Every member but the last gets a copy; the last takes `attrs` itself.
  Socket* last = nullptr;
  for (auto& sock : sockets_) {
    if (!sock->member_of(group)) continue;
    if (last) last->enqueue(Message{type, attrs});
    last = sock.get();
  }
  if (last) last->enqueue(Message{type, std::move(attrs)});
}

std::vector<Message> Bus::dump(DumpKind kind) const {
  LFP_CHECK_MSG(provider_ != nullptr, "netlink dump without provider");
  return provider_->dump(kind);
}

}  // namespace linuxfp::nl
