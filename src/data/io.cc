#include "data/io.h"

#include <fstream>
#include <utility>

#include "geom/wkt.h"

namespace hasj::data {

Status SaveDataset(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open for writing: " + path);
  out << "# hasj dataset: " << dataset.name() << "\n";
  for (const geom::Polygon& p : dataset.polygons()) {
    out << geom::ToWkt(p) << "\n";
  }
  out.flush();
  if (!out) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

Result<Dataset> LoadDataset(const std::string& path, std::string name,
                            const LoadLimits& limits) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open for reading: " + path);
  Dataset dataset(name.empty() ? path : std::move(name));
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (limits.max_line_bytes > 0 &&
        static_cast<int64_t>(line.size()) > limits.max_line_bytes) {
      return Status::OutOfRange(path + ":" + std::to_string(line_no) +
                                ": line exceeds " +
                                std::to_string(limits.max_line_bytes) +
                                " bytes");
    }
    if (line.empty() || line[0] == '#') continue;
    if (limits.max_objects > 0 && dataset.size() >=
                                      static_cast<size_t>(limits.max_objects)) {
      return Status::OutOfRange(path + ":" + std::to_string(line_no) +
                                ": dataset exceeds " +
                                std::to_string(limits.max_objects) +
                                " objects");
    }
    if (limits.faults != nullptr) {
      if (Status s = limits.faults->Check(FaultSite::kDatasetLoad); !s.ok()) {
        return Status(s.code(), path + ":" + std::to_string(line_no) + ": " +
                                    s.message());
      }
    }
    Result<geom::Polygon> poly = geom::ParseWktPolygon(line, limits.wkt);
    if (!poly.ok()) {
      return Status(poly.status().code(),
                    path + ":" + std::to_string(line_no) + ": " +
                        poly.status().message());
    }
    dataset.Add(std::move(poly).value());
  }
  return dataset;
}

}  // namespace hasj::data
